// Positive fixture: a KRONLAB_TRACE_SPAN as the sole unbraced body of a
// control statement is destroyed at the semicolon — it times nothing.
// ANALYZE-EXPECT: trace-span-scope 3

#define KRONLAB_TRACE_SPAN(cat, name) int kronlab_trace_span_dummy = 0

void count_things(bool traced) {
  if (traced) KRONLAB_TRACE_SPAN("kernel", "count"); // rule fires

  for (int i = 0; i < 3; ++i)
    KRONLAB_TRACE_SPAN("kernel", "iter"); // rule fires: unbraced loop body

  if (!traced) {
  } else KRONLAB_TRACE_SPAN("kernel", "else"); // rule fires
}
