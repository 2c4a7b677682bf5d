#include "openloop.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace perfbench {

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  odenet::util::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

}  // namespace perfbench
