// Negative fixture tree: the rule covers src/ and bench/ only; tests,
// tools and examples may flush.
// ANALYZE-EXPECT: no-endl 0

#include <iostream>

void print() { std::cout << "ok" << std::endl; }
