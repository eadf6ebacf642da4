#include <cstdio>

void progress(int i) { std::fprintf(stderr, "rep %d\n", i); }
