// Negative fixture: deleted functions, a `new_`-named member, `new` and
// `delete` inside comments, strings and a multi-line raw string, and a
// justified allow marker directly above the one owning allocation.
// ANALYZE-EXPECT: naked-new 0

#include <memory>

struct Node {
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  static Node* new_();
  int value = 0;
};

const char* kDoc = "call new Node, then delete it";
const char* kRaw = R"doc(
  Node* n = new Node;
  delete n;
)doc";

std::unique_ptr<Node> owned() {
  return std::make_unique<Node>(); // delete-free ownership
}

Node& leaked() {
  // kronlab-analyze: allow(naked-new) leaked on purpose: outlives statics
  static Node* n = new Node;
  return *n;
}
