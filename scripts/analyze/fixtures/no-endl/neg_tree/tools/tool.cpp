#include <iostream>

void print() { std::cout << "ok" << std::endl; }
