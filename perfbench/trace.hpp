// Layer tracing for perfbench_traced (see trace.cpp).
#pragma once

#include <iosfwd>

namespace trace {

/// While alive, wrapped calls pass straight through uncounted and untimed
/// (the benchmark's own checks call into the layers too).
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;
};

/// Prints every layer metric as one JSON object.
void print_layers(std::ostream& out);

}  // namespace trace
