#include <cstdio>

void answer(long long n) { std::printf("%lld\n", n); }
