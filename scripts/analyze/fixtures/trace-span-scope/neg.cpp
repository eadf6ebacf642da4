// Negative fixture: every span lives in a braced scope.
// ANALYZE-EXPECT: trace-span-scope 0

#define KRONLAB_TRACE_SPAN(cat, name) int kronlab_trace_span_dummy = 0

void count_things(bool traced) {
  {
    KRONLAB_TRACE_SPAN("kernel", "block");
  }
  if (traced) {
    KRONLAB_TRACE_SPAN("kernel", "count");
  }
  for (int i = 0; i < 3; ++i) {
    KRONLAB_TRACE_SPAN("kernel", "iter");
  }
  // if (traced) KRONLAB_TRACE_SPAN("kernel", "comment") is not code
}
