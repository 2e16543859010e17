// Seeded fixture: library code writing a live-observability file with a bare
// std::ofstream — a concurrent scraper could read the half-written file.
// Publishes must go through obs::write_atomic (tmp+rename). Exactly one
// raw-status-write finding fires.
#include <fstream>
#include <string>

inline void publish(const std::string& status_path,
                    const std::string& content) {
  std::ofstream out(status_path);
  out << content;
}
