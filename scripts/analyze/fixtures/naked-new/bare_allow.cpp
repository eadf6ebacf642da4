// Positive fixture: an allow marker with no justification is itself a
// finding (bare-allow), even though it still silences the site.
// ANALYZE-EXPECT: bare-allow 1

int* make() {
  // kronlab-analyze: allow(naked-new)
  return new int(7);
}
