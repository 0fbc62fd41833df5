// flsa_perfbench: the repository benchmark.
//
//   flsa_perfbench --workload <pair_long|serve_small|routed_mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the workload and prints its end-to-end metrics.
// --trace 1 is the separate traced run: it probes every layer (dp, core,
// parallel, service, router, search, loadgen) and measures the tracing
// overhead on the named workload, printing the per-layer metrics.
// The last line of stdout is the result object; the exit code is 0 when
// every answer was correct, 1 when one was wrong, 2 on bad arguments and
// 3 when the run proves nothing (set-up failed, generator fell behind).
#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

/// Ends the process if a run hangs, well inside the 180 s a run may take.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::cerr << "perfbench: run exceeded " << limit.count()
                      << " s, aborting\n";
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::clamp(n, 1, 4));
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: flsa_perfbench --workload "
               "<pair_long|serve_small|routed_mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  pb::RunOptions options;
  int trace = -1;
  bool have_seed = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed value");
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  if (workload != "pair_long" && workload != "serve_small" &&
      workload != "routed_mixed") {
    return usage("unknown workload '" + workload + "'");
  }
  if (!have_seed || (trace != 0 && trace != 1) || !(options.seconds >= 1.0) ||
      options.seconds > 60.0) {
    return usage("--seed, --seconds (1-60) and --trace (0|1) are required");
  }
  options.cores = usable_cores();

  // Everything the run writes stays under the output directory: servers
  // keep their private store directories under TMPDIR.
  const std::string dir = pb::output_dir();
  const std::string tmp = dir + "/tmp";
  ::mkdir(dir.c_str(), 0755);
  ::mkdir(tmp.c_str(), 0755);
  ::setenv("TMPDIR", tmp.c_str(), 1);

  const Watchdog watchdog(std::chrono::seconds(170));
  pb::RunOutput out;
  pb::SpanLog spans;
  try {
    if (trace == 0) {
      out = workload == "pair_long"     ? pb::run_pair_long(options)
            : workload == "serve_small" ? pb::run_serve_small(options)
                                        : pb::run_routed_mixed(options);
    } else {
      pb::engine_layers(options, out);
      pb::service_layers(options, spans, out);
      pb::router_layers(options, spans, out);
      const double overhead =
          workload == "pair_long"     ? pb::pair_long_overhead(options, spans)
          : workload == "serve_small" ? pb::serve_small_overhead(options, spans)
                                      : pb::routed_mixed_overhead(options, spans);
      out.metrics.push_back({"obs.tracing_overhead", overhead, "x"});
      const std::string path = dir + "/perfbench-trace-" + workload + "-" +
                               std::to_string(options.seed) + ".json";
      if (spans.write_chrome_trace(path)) {
        out.notes.push_back("spans: " + std::to_string(spans.size()) +
                            " written to " + path);
      }
      for (const auto& [name, self] : spans.self_seconds()) {
        out.notes.push_back("self time " + name + ": " +
                            std::to_string(self) + " s");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 3;
  }

  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const std::string& error : out.errors) {
    std::cout << "WRONG: " << error << "\n";
  }
  if (!out.invalid.empty()) {
    std::cerr << "perfbench: run invalid: " << out.invalid << "\n";
    return 3;
  }
  pb::print_result(out.errors.empty(), std::max<std::uint64_t>(1, out.attempted),
                   out.failed, out.metrics);
  return out.errors.empty() ? 0 : 1;
}
