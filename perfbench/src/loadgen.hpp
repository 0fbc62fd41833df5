// Open-loop load generation and the max-rate ladder.
//
// Requests follow a seeded Poisson schedule and are sent when due whether
// or not earlier ones were answered (independent users), so a stall in the
// system shows as queueing instead of as a slower sender. Latency is timed
// from each request's scheduled send time, and the generator reports how
// late it ran so a run where it fell behind can be thrown out.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "common.hpp"
#include "service/protocol.hpp"

namespace pb {

using Request =
    std::variant<flsa::service::AlignRequest, flsa::service::SearchRequest>;

/// Arrival offsets in seconds from the phase start: a Poisson process of
/// the given rate, truncated to [0, seconds). Same seed, same schedule.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds);

/// Generator threads one open-loop run uses for `connections` connections
/// (a sender and a receiver per connection).
inline unsigned generator_threads(unsigned connections) {
  return 2 * connections;
}

/// Throws std::runtime_error unless the generator's threads and
/// connections both fit in `limit` (the host's core count, at most 4).
void check_generator_limits(unsigned connections, unsigned limit);

/// What happened to one scheduled request.
struct Sample {
  bool answered = false;
  flsa::service::Response response;
  double scheduled_s = 0.0;  ///< offset of the due time from phase start
  double late_ms = 0.0;      ///< actual send time - due time
  double latency_ms = 0.0;   ///< answer time - due time
  double round_trip_ms = 0.0;  ///< answer time - actual send time
};

/// A request failed when it was never answered or answered with an error.
bool failed(const Sample& sample);

struct OpenLoopRun {
  std::vector<Sample> samples;  ///< in schedule order
  Clock::time_point start;      ///< schedule offsets count from here
  double span_s = 0.0;          ///< first due time to last answer
};

/// Sends requests[i] at schedule[i] (seconds from start) over
/// `connections` pipelined connections to 127.0.0.1:port and waits for
/// every answer. Each connection has one sender and one receiver thread.
OpenLoopRun run_open_loop(std::uint16_t port,
                          const std::vector<Request>& requests,
                          const std::vector<double>& schedule,
                          unsigned connections);

/// Summary of one open-loop phase. Latency quantiles are over answered,
/// successful requests; any failure already disqualifies the phase.
struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double late_p95_ms = 0.0;
  double achieved_rps = 0.0;
  bool backlog_grew = false;
};

/// Windows an open-loop phase is cut into. Eight keeps ~100 requests beyond
/// the p95 of each window at the fixed rates; over six repeated 20-second
/// phases the median over 8 windows spread 18% on p95, the lower quartile
/// over 16 windows 33% and the plain p95 26%.
inline constexpr std::size_t kPhaseWindows = 8;

/// windowed_quantile (common.hpp) of value(k) for each request k of the
/// phase, placed at its due time, over kPhaseWindows windows; NaN values
/// are skipped. Open-loop metrics take the median over the windows.
double windowed_quantile(const OpenLoopRun& run,
                         const std::function<double(std::size_t)>& value,
                         double p, double across);

/// Windows the measured part of a fixed-rate phase is cut into by
/// punctual_quantile: about 1 s and 770 serve_small requests each at the
/// 50 s a run BENCHMARK.json sets.
inline constexpr std::size_t kPunctualWindows = 24;
/// punctual_quantile keeps the windows whose generator lateness is at most
/// this multiple of the most punctual window's.
inline constexpr double kPunctualFactor = 2.0;

/// The quantile p of value(k) over the requests due from `warmup_s` on,
/// read where the host let the generator keep time: the requests are cut
/// into kPunctualWindows windows by due time and each window's generator
/// lateness (p95) is taken. Kept are the windows at most kPunctualFactor
/// times as late as the most punctual one, and at least the most punctual
/// quarter; the median of their per-window quantiles is reported. NaN
/// values are skipped; with no window of kMinWindowSamples values, the
/// plain quantile. A neighbour's burst on a shared host delays the sleeping
/// sender as much as the server, so lateness marks the disturbed windows
/// without looking at the latency measured, and a slower program is slower
/// in every window. On a quiet host nearly every window is kept. Spreads
/// (quartile distance / median) of p50 and p95 over sets of serve_small
/// phases on a shared 4-vCPU host: 12 quiet ones 8% and 15% this way, 8%
/// and 26% keeping only the most punctual quarter, 17% and 28% plain; 11
/// partly disturbed ones 6% and 7%, 8% and 16%, 16% and 16%.
double punctual_quantile(const OpenLoopRun& run,
                         const std::function<double(std::size_t)>& value,
                         double p, double warmup_s);

/// True when the median latency of the last quarter of the schedule
/// exceeds that of the first quarter by more than `margin_ms` — the
/// signature of a queue that grows for as long as the phase runs.
bool backlog_grew(const std::vector<double>& latency_in_schedule_order,
                  double margin_ms);

PhaseStats summarize(const OpenLoopRun& run, double p95_limit_ms);

/// One probe of the max-rate ladder.
struct RungResult {
  double rate = 0.0;  ///< the rung's nominal rate
  double offered_rps = 0.0;  ///< requests sent / schedule length
  PhaseStats stats;
};

struct LadderSpec {
  std::vector<double> rates;  ///< ascending
  double p95_limit_ms = 0.0;
  /// Beyond this generator lateness (p95) the rung proves nothing.
  double max_late_ms = 0.0;
  std::size_t start = 0;   ///< rung of the first probe
  std::size_t probes = 8;  ///< probes per run
};

/// rates[i] = lo * ratio^i for i in [0, n).
std::vector<double> geometric_ladder(double lo, double ratio, std::size_t n);

/// A rung passes when nothing failed, the backlog did not grow, p95 meets
/// the limit and the generator kept to its schedule.
bool rung_passes(const RungResult& rung, const LadderSpec& spec);

struct Probe {
  std::size_t rung = 0;
  RungResult result;
  bool pass = false;
};

/// Up-down staircase over the ladder: the first probe runs spec.start; a
/// pass moves `step` rungs up and a failure `step` rungs down (clamped to
/// the ladder). `step` starts at 2 and doubles with each move the same way
/// (at most 4) until the first reversal, so a much faster or slower program
/// is still found; every reversal halves it, down to 1. run(rung, probe
/// index) runs one probe. Returns the mean offered rate of the probes from
/// the one at which `step` reached 1 (of all probes if it never did): the
/// rate at which a probe meets the limit about half the time. Near
/// capacity a single probe's verdict is noisy; the staircase averages over
/// its probes instead of trusting the last one, as a binary search would.
/// Every probe is appended to `trail`.
double staircase(const LadderSpec& spec,
                 const std::function<RungResult(std::size_t, std::size_t)>& run,
                 std::vector<Probe>* trail);

}  // namespace pb
