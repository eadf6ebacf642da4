// kronlab-analyze: allow(naked-new) this marker is too far up: a blank
// line separates it from the allocation, so it suppresses nothing.

int* make() { return new int(7); }

// ANALYZE-EXPECT: naked-new 1
