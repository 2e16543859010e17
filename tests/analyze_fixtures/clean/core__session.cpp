#include "core/session.hpp"

namespace rahooi {

template <typename T>
void Session<T>::step(comm::Comm& world) {
  world.barrier();
}

}  // namespace rahooi
