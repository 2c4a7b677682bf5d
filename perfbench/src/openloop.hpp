// Open-loop load generation: requests go out on a precomputed schedule no
// matter how the server keeps up, so a stall delays every later send, and
// latency is timed from when each request was due.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Poisson arrivals at `rate` per second over [0, seconds).
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

class OpenLoopSchedule {
 public:
  /// `due_seconds` ascending, relative to the moment run() starts.
  explicit OpenLoopSchedule(std::vector<double> due_seconds)
      : due_(std::move(due_seconds)) {}

  /// Sleeps until each request is due and calls send(i, due time) on the
  /// calling thread; a send that blocks makes the next ones late.
  void run(const std::function<void(std::size_t, Clock::time_point)>& send) {
    lag_ms_.clear();
    lag_ms_.reserve(due_.size());
    start_ = Clock::now();
    for (std::size_t i = 0; i < due_.size(); ++i) {
      const Clock::time_point due = due_at(i);
      std::this_thread::sleep_until(due);
      lag_ms_.push_back(ms_between(due, Clock::now()));
      send(i, due);
    }
  }

  Clock::time_point due_at(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_[i]));
  }
  /// When run() started: due times count from here.
  Clock::time_point start() const { return start_; }
  /// How late each send started against its due time.
  const std::vector<double>& lag_ms() const { return lag_ms_; }

 private:
  std::vector<double> due_;
  std::vector<double> lag_ms_;
  Clock::time_point start_{};
};

}  // namespace perfbench
