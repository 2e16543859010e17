// Seeded fixture: raw steady_clock timing in library code outside src/prof,
// src/metrics, and the stats::now() implementation. Exactly one
// raw-steady-clock finding fires.
#include <chrono>

inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
