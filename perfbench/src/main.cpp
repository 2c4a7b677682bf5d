// perfbench: the repo benchmark. One run of one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// Workloads: offline_float, offline_fixed, pl_offload, serve_open (see
// README.md). Self-tests of the benchmark's arithmetic run first; the
// last line of standard output is `PERFBENCH_RESULT {json}` with every
// metric the run measured, its output-check verdict and a host and run
// fingerprint. run.py builds this binary and turns that line into the
// result BENCHMARK.json describes. Exits 1 when a self-test or an output
// check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "hostspeed.hpp"
#include "core/gemm_kernels.hpp"
#include "util/thread_pool.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"offline_float", "offline_fixed",
                                  "pl_offload", "serve_open"};

bool parse_args(int argc, char** argv, RunArgs& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = false;
      for (const char* w : kWorkloads) have_workload |= value == w;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 120.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload offline_float|offline_fixed|"
                 "pl_offload|serve_open --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--commit ID]\n");
    return 2;
  }
  const std::vector<std::string> selftest = run_self_tests();
  for (const std::string& f : selftest) {
    std::fprintf(stderr, "perfbench self-test failed: %s\n", f.c_str());
  }
  if (!selftest.empty()) return 1;

  // The closed loops run one thread at a time (the producer waits while
  // the worker computes), so they lose nothing on one CPU, and their probe
  // chunks then time the vCPU the model ran on. serve_open's threads run
  // at once and stay unpinned.
  const int cpu =
      args.workload == "serve_open" ? -1 : pin_to_current_cpu();
  odenet::util::ThreadPool kernel_pool(kKernelPoolThreads);
  odenet::core::set_kernel_pool(&kernel_pool);
  RunResult r;
  try {
    r = args.workload == "serve_open" ? run_serve_open(args)
                                      : run_offline(args);
  } catch (const std::exception& e) {
    odenet::core::set_kernel_pool(nullptr);
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  odenet::core::set_kernel_pool(nullptr);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  // Host and run fingerprint: numbers from different host classes, builds
  // or kernel-pool sizes are not comparable.
  r.info["isa"] = odenet::core::gemm_isa_name();
  r.info["kernel_pool_threads"] = std::to_string(kKernelPoolThreads);
  r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.info["pinned_cpu"] = cpu < 0 ? "none" : std::to_string(cpu);
  r.info["compiler"] = PERFBENCH_COMPILER;
  r.info["build_type"] = PERFBENCH_BUILD_TYPE;
  r.info["commit"] = args.commit;
  r.info["workload"] = args.workload;
  r.info["seed"] = std::to_string(args.seed);
  r.info["seconds"] = std::to_string(args.seconds);
  r.info["trace"] = args.trace ? "1" : "0";

  for (const std::string& f : r.check_failures) {
    std::printf("output check failed: %s\n", f.c_str());
  }
  std::ostringstream os;
  os.precision(12);
  os << "PERFBENCH_RESULT {\"correct\":" << (r.correct() ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"value\":";
    if (std::isfinite(metric.first)) {
      os << metric.first;
    } else {
      os << "null";
    }
    os << ",\"unit\":\"" << metric.second << "\"}";
    first = false;
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [key, value] : r.info) {
    os << (first ? "" : ",") << "\"" << key << "\":\"" << json_escape(value)
       << "\"";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return r.correct() ? 0 : 1;
}
