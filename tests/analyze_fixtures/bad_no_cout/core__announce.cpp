// Seeded fixture: library code writing to a process stream. Exactly one
// no-cout finding fires.
#include <iostream>

inline void announce() { std::cout << "hello from a rank\n"; }
