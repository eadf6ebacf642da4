#include <string>

// A comment may name "/tmp/kronlab_case" freely.
std::string join(const std::string& dir) {
  const std::string raw = R"(/tmp is only named inside a raw string)";
  return dir + "/case" + raw.substr(0, 0);
}
