// Seeded fixture: sleeping in library code outside src/fault. Exactly one
// no-sleep finding fires.
#include <chrono>
#include <thread>

inline void stall() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
