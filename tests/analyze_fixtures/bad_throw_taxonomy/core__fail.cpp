// Seeded fixture: throw site outside the rahooi error taxonomy. Exactly one
// throw-taxonomy finding fires.
#include <stdexcept>

inline void fail() { throw std::runtime_error("untyped failure"); }
