// A library file that only mentions std::endl in a comment and a string.
#include <iostream>

void dump(long long count) {
  std::cout << count << "no std::endl here" << '\n';
}
