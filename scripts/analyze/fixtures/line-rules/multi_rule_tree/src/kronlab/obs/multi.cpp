// Rule-interaction fixture (all ten line rules run): several rules trip
// in one file, and two trip on the SAME line where an allow() marker
// names only one of them — the unnamed rule must still fire.
// Suppression is per rule, not per line.
// ANALYZE-EXPECT: naked-new 1
// ANALYZE-EXPECT: no-endl 2
// ANALYZE-EXPECT: no-assert 1

#include <cassert>
#include <iostream>

struct Node {
  int v = 0;
};

Node* build() {
  assert(true);                         // no-assert fires
  std::cout << "built" << std::endl;    // no-endl fires
  return new Node;                      // naked-new fires
}

Node* build_quietly() {
  // kronlab-analyze: allow(naked-new) arena-owned; freed at shutdown
  Node* n = new Node; std::cout << "x" << std::endl;  // no-endl STILL fires
  return n;
}
