// Seeded fixture: naked new expression in library code. Exactly one
// no-naked-new finding fires.

inline int* leak(int n) { return new int[static_cast<unsigned>(n)]; }
