// Positive fixture: a raw owning allocation and its raw release.  (The
// words "new lines" in this comment must NOT count: comments are
// blanked before matching.)
// ANALYZE-EXPECT: naked-new 2

struct Node {
  int value = 0;
};

Node* make_node() {
  return new Node(); // naked new: the rule fires here
}

void drop_node(Node* n) {
  delete n; // and here
}
