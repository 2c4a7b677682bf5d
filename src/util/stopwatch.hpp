// Wall-clock stopwatch used by the benchmark harness and the trainer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace odenet::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Seconds per call of `call()` over one trial: calls repeat until
/// `min_seconds` of wall time has passed, so the timer's resolution and
/// one-off stalls are a small share of every trial.
template <typename Call>
double seconds_per_call(Call&& call, double min_seconds) {
  int calls = 0;
  Stopwatch watch;
  do {
    call();
    ++calls;
  } while (watch.seconds() < min_seconds);
  return watch.seconds() / calls;
}

/// Value at quantile q (0..1) of `v`, nearest rank on a sorted copy.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

}  // namespace odenet::util
