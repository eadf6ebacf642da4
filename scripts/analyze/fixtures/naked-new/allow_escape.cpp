// Positive fixture: the allow marker suppresses exactly the allocation
// below it — the second, unmarked `new` must still be flagged.
// ANALYZE-EXPECT: naked-new 1

struct Registry {
  int n = 0;
};

Registry& leaked_singleton() {
  // kronlab-analyze: allow(naked-new) deliberately leaked: outlives
  // detached threads.
  static Registry* r = new Registry; // suppressed by the marker above
  return *r;
}

Registry* unmarked() {
  return new Registry; // rule fires: no allow marker
}
