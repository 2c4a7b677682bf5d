// Self-tests of the benchmark's own arithmetic, run at the start of every
// benchmark run: a wrong percentile, tail rule, slice rate, open-loop
// clock, MAC count or self-time subtraction would make every number after
// it wrong.
#include <cmath>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "hostspeed.hpp"
#include "openloop.hpp"
#include "sched/cpu_model.hpp"

namespace perfbench {

namespace {

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void near(double got, double want, double tol, const std::string& what) {
    if (!(std::fabs(got - want) <= tol)) {
      std::ostringstream os;
      os << what << ": got " << got << ", want " << want;
      failures.push_back(os.str());
    }
  }
};

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_rules(Checks& c) {
  c.near(percentile_sorted({1, 2, 3, 4, 5}, 50), 3.0, 1e-12, "p50 of 1..5");
  c.near(percentile_sorted({1, 2, 3, 4}, 50), 2.5, 1e-12, "p50 of 1..4");
  c.near(percentile_sorted({1, 2, 3, 4}, 100), 4.0, 1e-12, "p100 of 1..4");
  c.near(percentile_sorted({7}, 99), 7.0, 1e-12, "p99 of one sample");
  c.expect(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  c.expect(samples_beyond(1000, 99.9) == 1, "1000 samples: 1 beyond p99.9");
  c.expect(samples_beyond(199, 95.0) == 9, "199 samples: 9 beyond p95");

  Tail t = tail_of(ramp(1000));
  c.near(t.percentile, 99.0, 0.0, "tail of 1000 samples is p99");
  c.expect(t.beyond == 10, "tail of 1000 samples has 10 beyond");
  c.near(t.value, 990.01, 1e-9, "p99 of 1..1000");
  t = tail_of(ramp(199));
  c.near(t.percentile, 90.0, 0.0, "tail of 199 samples is p90");
  t = tail_of(ramp(2000));
  c.near(t.percentile, 99.5, 0.0, "tail of 2000 samples is p99.5");
  t = tail_of(ramp(80));
  c.near(t.percentile, 75.0, 0.0, "tail of 80 samples is p75");
  c.expect(t.beyond == 20, "tail of 80 samples has 20 beyond");
  t = tail_of(ramp(15));
  c.near(t.percentile, 100.0, 0.0, "15 samples support no tail");
  c.near(t.value, 15.0, 0.0, "no-tail fallback is the maximum");
}

// A closed loop's rounds at the reference host speed: rounds that took
// twice as long while the probe also took twice as long are the same
// rounds on a host at half speed. The running median ignores one probe
// chunk that an interrupt lengthened.
void closed_loop_rates(Checks& c) {
  std::vector<Round> rounds;
  for (int i = 0; i < 40; ++i) {
    const double slow = i < 20 ? 1.0 : 2.0;
    rounds.push_back({100.0 * slow, 16.0, kProbeNominalMs * slow});
  }
  rounds[5].probe_ms = 10.0 * kProbeNominalMs;
  const WindowFigures f = closed_loop_figures(rounds);
  c.near(f.per_s, 160.0, 1e-9, "16 images per normalized 100 ms round");
  c.near(f.per_s_min, 160.0, 1e-9, "slowest slice at reference speed");
  c.near(f.p50_ms, 100.0, 1e-9, "normalized round latency");
  c.near(f.tail_ms, 100.0, 1e-9, "normalized round tail");
  c.expect(f.n == 40, "one latency sample per round");
  // Open-loop requests count in the slice where they end.
  std::vector<Completion> requests;
  for (int i = 0; i < 30; ++i) requests.push_back({0.1 * i + 0.05, 1.0});
  c.near(window_figures(requests, 3.0).per_s, 10.0, 1e-9,
         "open loop: 1 request per 0.1 s is 10/s");
}

// A fake server that stalls while taking request 2: every later request is
// sent late, and its latency must count the stall from when it was due.
void open_loop_clock(Checks& c) {
  constexpr double kGap = 0.005, kStall = 0.050;
  std::vector<double> due;
  for (int i = 0; i < 8; ++i) due.push_back(kGap * (i + 1));
  std::vector<double> latency_ms(due.size(), 0.0), sent_ms(due.size(), 0.0);
  OpenLoopSchedule schedule(due);
  schedule.run([&](std::size_t i, Clock::time_point due_at) {
    const auto sent = Clock::now();
    if (i == 2) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
    }
    const auto done = Clock::now();  // the fake replies at once
    latency_ms[i] = ms_between(due_at, done);
    sent_ms[i] = ms_between(sent, done);
  });
  // Request 3 was due kGap after request 2 but went out after the stall.
  c.expect(latency_ms[3] >= (kStall - kGap) * 1e3 * 0.9,
           "open loop: latency of a request behind a stall counts from due");
  c.expect(sent_ms[3] < (kStall - kGap) * 1e3 * 0.5,
           "open loop: the fake server itself answered request 3 at once");
  const Tail lag = tail_of(schedule.lag_ms());
  c.expect(lag.value >= (kStall - 2 * kGap) * 1e3 * 0.9,
           "open loop: the generator reports how late it sent");
}

void mac_count(Checks& c) {
  const models::NetworkSpec spec =
      models::make_spec(models::Arch::kROdeNet3, 56);
  for (const auto& s : spec.stages) {
    if (s.stacked_blocks == 0) continue;
    c.expect(block_macs_from_geometry(s) ==
                 odenet::sched::CpuModel::block_macs(s),
             "MACs of " + models::stage_name(s.id) +
                 " match CpuModel::block_macs");
  }
  // layer3_2: 64 channels on 8x8, two 3x3 convs.
  c.expect(block_macs_from_geometry(spec.stage(models::StageId::kLayer3_2)) ==
               2ull * 64 * 64 * 9 * 8 * 8,
           "layer3_2 block is 4718592 MACs");
}

void self_time(Checks& c) {
  // root [0,100]; children [10,30] and [20,50] overlap; [90,120] is
  // clipped to the root. Covered: [10,50] + [90,100] = 50.
  std::vector<Span> spans(5);
  spans[0] = {1, 0, 1, "root", "models", 0, 100, 0};
  spans[1] = {2, 1, 1, "a", "core", 10, 30, 0};
  spans[2] = {3, 1, 1, "b", "core", 20, 50, 0};
  spans[3] = {4, 1, 1, "c", "fixed", 90, 120, 0};
  spans[4] = {5, 2, 1, "a.child", "solver", 12, 18, 0};
  const auto self = self_times_us(spans);
  c.near(self.at(1), 50.0, 1e-9, "root self time");
  c.near(self.at(2), 14.0, 1e-9, "child self time minus grandchild");
  c.near(self.at(4), 30.0, 1e-9, "unclipped leaf keeps its duration");
  const TraceTotals t = trace_totals(spans);
  c.near(t.root_us, 100.0, 1e-9, "root time");
  c.near(t.unattributed_us, 50.0, 1e-9, "unattributed time");
  c.near(t.self_us_by_layer.at("core"), 14.0 + 30.0, 1e-9, "core self time");
}

}  // namespace

std::vector<std::string> run_self_tests() {
  Checks c;
  percentile_rules(c);
  closed_loop_rates(c);
  open_loop_clock(c);
  mac_count(c);
  self_time(c);
  return c.failures;
}

}  // namespace perfbench
