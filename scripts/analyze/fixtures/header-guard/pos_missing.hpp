// Positive fixture: no include guard at all — double inclusion is an ODR
// time bomb.
// ANALYZE-EXPECT: header-guard 1

inline int fixture2_value() { return 7; }
