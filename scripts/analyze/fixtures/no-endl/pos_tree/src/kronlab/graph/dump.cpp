// ANALYZE-EXPECT: no-endl 1

#include <iostream>

void dump(long long count) {
  std::cout << count << std::endl; // rule fires: library code
}
