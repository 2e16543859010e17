// Sibling header for core__idioms.cpp.
#pragma once

namespace fixture {

struct precondition_error {
  explicit precondition_error(const char*) {}
};

}  // namespace fixture
