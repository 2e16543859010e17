// Seeded fixture: .cpp with a same-stem sibling header that is not included
// first. Exactly one include-order finding fires.
#include <vector>

#include "core/order.hpp"

inline std::vector<int> values() { return {1, 2, 3}; }
