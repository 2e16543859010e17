// Seeded fixture: C rand() in library code breaks deterministic replay.
// Exactly one no-rand finding fires.
#include <cstdlib>

inline int noise() { return std::rand() % 7; }
