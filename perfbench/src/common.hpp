// Shared pieces of the benchmark harness: the seeded input generator, exact
// order statistics, the result line, the in-memory span log and process
// measurements. Everything here is the benchmark's own code, so a change to
// the library cannot change how the benchmark generates or summarises.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// splitmix64: a tiny, fully specified generator, so inputs are the same on
/// every platform and standard library for a given seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Seed of an independent stream: the same (seed, stream, index) always
/// gives the same generator, whatever else the run generated before it.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index = 0);

inline constexpr std::string_view kProteinLetters = "ARNDCQEGHILKMFPSTWYV";
inline constexpr std::string_view kDnaLetters = "ACGT";

std::string random_letters(Rng& rng, std::string_view letters,
                           std::size_t length);

/// Point substitutions plus short insertions and deletions (geometric
/// lengths), the usual model of a homologous sequence.
struct Mutation {
  double substitution = 0.10;
  double insertion = 0.02;
  double deletion = 0.02;
  double extension = 0.5;
};
std::string mutate(Rng& rng, std::string_view parent,
                   std::string_view letters, const Mutation& model);

/// Integer drawn log-uniformly from [lo, hi].
std::size_t log_uniform(Rng& rng, std::size_t lo, std::size_t hi);

/// Exact sample quantile, linear interpolation between order statistics
/// (Hyndman-Fan type 7). p in [0, 1]; an empty sample gives 0.
double quantile(std::vector<double> sample, double p);
double median(std::vector<double> sample);

/// A value observed at a time (seconds from the start of a phase).
struct TimedValue {
  double at_s = 0.0;
  double value = 0.0;
};

/// Windows with fewer values than this are left out of windowed_quantile.
inline constexpr std::size_t kMinWindowSamples = 20;

/// The phase cut into `windows` equal slices of time; the p-quantile of the
/// values within each slice, then the `across`-quantile over the slices.
/// On a shared host other tenants slow everything down in bursts of a
/// fraction of a second to tens of seconds; taking the quieter side across
/// windows (0.25 for latencies, 0.75 for rates) keeps bursts that cover up
/// to three quarters of the phase from moving the result, while a slower
/// program moves every window. Equals the plain quantile when the host is
/// steady. Falls back to the quantile over all values when no window holds
/// kMinWindowSamples of them.
double windowed_quantile(const std::vector<TimedValue>& samples, double p,
                         double across, std::size_t windows);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the final result line: one JSON object, last line of stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Spans recorded by the harness around its calls into each layer. Kept in
/// memory and written as Chrome-trace JSON when the run ends; per-name
/// self time (duration minus the time covered by child spans) is what the
/// traced run reports per layer.
class SpanLog {
 public:
  using Id = std::uint64_t;
  /// Records a finished span; returns its id (0 is "no parent").
  Id record(std::string_view name, Clock::time_point start,
            Clock::time_point end, Id parent = 0, std::uint64_t request = 0,
            std::uint32_t lane = 0);
  /// Sum of self time per span name, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Writes the spans as Chrome-trace JSON ("X" events, microseconds).
  bool write_chrome_trace(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    Id parent = 0;
    std::uint64_t request = 0;
    std::uint32_t lane = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// Directory the run may write into: $CARGO_TARGET_DIR, else .bench_build.
std::string output_dir();

}  // namespace pb
