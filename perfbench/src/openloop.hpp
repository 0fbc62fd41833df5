// The shared runner of the two open-loop workloads (serve_small and
// routed_mixed): timed set-up, a fixed-rate phase for latency, the max-rate
// ladder, untimed verification, and the end-to-end metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "workloads.hpp"

namespace pb {

/// Which per-kind rate a request feeds, with the cells it stands for.
struct RequestKind {
  enum Kind { kProtein, kDna } kind = kProtein;
  double cells = 0.0;
};

struct OpenLoopSpec {
  const char* name = "";
  double fixed_rate = 0.0;  ///< requests/s of the latency phase
  LadderSpec ladder;
  /// Streams: warm-up = base, fixed phase = base + 1 (requests) and
  /// base + 2 (schedule), the traced run's overhead passes base + 3 to
  /// base + 6, ladder probe p = base + 10 + p and base + 500 + p.
  std::uint64_t stream_base = 0;
  int setup_repeats = 3;
  std::size_t warmup_requests = 200;

  /// Starts a fresh system (the previous one is already stopped) and
  /// returns the port clients connect to.
  std::function<std::uint16_t()> start;
  std::function<void()> stop;
  std::function<Request(std::uint64_t stream, std::size_t index)> request;
  std::function<RequestKind(const Request&)> kind;
  /// Checks every answered request; returns failure descriptions.
  std::function<std::vector<std::string>(
      const std::vector<Request>&, const OpenLoopRun&, unsigned threads)>
      verify;
};

/// Generator connections for a core budget: two when the host has four
/// cores (a sender and a receiver thread each), fewer on smaller hosts.
unsigned generator_connections(unsigned cores);

/// One open-loop phase at a fixed rate.
struct Phase {
  double rate = 0.0;
  std::vector<Request> requests;
  OpenLoopRun run;
  PhaseStats stats;
};

Phase run_phase(const OpenLoopSpec& spec, std::uint16_t port,
                std::uint64_t seed, std::uint64_t request_stream,
                std::uint64_t schedule_stream, double rate, double seconds,
                unsigned connections);

/// Set-up as timed: start() plus a closed-loop warm-up of distinct
/// requests. Returns seconds.
double timed_setup(const OpenLoopSpec& spec, int repeat, std::uint16_t* port,
                   std::vector<std::string>* errors);

/// The end-to-end run of an open-loop workload.
RunOutput run_open_loop_workload(const OpenLoopSpec& spec,
                                 const RunOptions& options);

/// Records each request of a phase in the span log: "loadgen.request"
/// from its due time to its answer, with the child "client.round_trip"
/// from the actual send; the parent's self time is the generator's delay.
void record_request_spans(const Phase& phase, SpanLog& spans);

/// A short untraced fixed-rate phase and a short traced one (the engine's
/// trace recorder armed, request spans kept) on one system; returns the
/// ratio of their median latencies.
double open_loop_overhead(const OpenLoopSpec& spec, const RunOptions& options,
                          SpanLog& spans);

}  // namespace pb
