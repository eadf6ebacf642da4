// Negative fixture: source files need no guard.
// ANALYZE-EXPECT: header-guard 0

int fixture4_value() { return 4; }
