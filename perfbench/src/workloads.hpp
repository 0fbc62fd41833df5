// The three workloads and the per-layer probes of the traced run.
//
//   pair_long     library calls, closed loop: long protein and DNA pairs
//                 through Aligner::align and parallel_fastlsa_align
//   serve_small   in-process AlignmentServer, open-loop Poisson traffic of
//                 distinct 100-1000 residue pairs
//   routed_mixed  in-process Router over two backends, open-loop traffic of
//                 small protein ALIGNs and DNA SEARCHes against a 1 Mbp
//                 reference
//
// Every workload reports the same end-to-end metric names (see README.md
// for what each means on each workload) and checks every answer it timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "service/protocol.hpp"

namespace pb {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Cores the benchmark may use: min(4, nproc).
  unsigned cores = 4;
};

/// What a run reports: the result-line fields plus human-readable notes
/// (printed before the result line) and any correctness failures.
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> errors;  ///< wrong answers; non-empty = incorrect
  std::string invalid;  ///< non-empty when the run proves nothing
};

RunOutput run_pair_long(const RunOptions& options);
RunOutput run_serve_small(const RunOptions& options);
RunOutput run_routed_mixed(const RunOptions& options);

// ---- Traced run --------------------------------------------------------

/// Engine layers (dp, core, parallel): direct calls into each module on the
/// pair_long pairs and the serve_small mix.
void engine_layers(const RunOptions& options, RunOutput& out);
/// Service layer and the open-loop generator, on a short serve_small pass.
void service_layers(const RunOptions& options, SpanLog& spans,
                    RunOutput& out);
/// Router and search layers, on a short routed_mixed pass.
void router_layers(const RunOptions& options, SpanLog& spans, RunOutput& out);
/// Short untraced and traced passes of one workload (tracing: the obs
/// registry and the engine's trace recorder armed, harness spans kept);
/// each returns the ratio of traced to untraced median latency.
double pair_long_overhead(const RunOptions& options, SpanLog& spans);
double serve_small_overhead(const RunOptions& options, SpanLog& spans);
double routed_mixed_overhead(const RunOptions& options, SpanLog& spans);

// ---- Shared request mixes ----------------------------------------------

/// Stream ids (see stream_seed): every phase draws its inputs and schedule
/// from its own stream, so the inputs of a phase do not depend on what ran
/// before it. The open-loop workloads number their phases from
/// OpenLoopSpec::stream_base (1000 for serve_small, 2000 for routed_mixed).
enum Stream : std::uint64_t {
  kPairProtein = 1,
  kPairDna = 2,
  kPairWarmup = 3,
  kServeProbe = 13,  ///< serve_small pairs replayed by the engine probes
  kOverhead = 30,
  kRoutedReference = 1999,
};

/// One serve_small request: 70% protein/MDM78 linear, 15% protein affine,
/// 15% DNA; lengths log-uniform in [100, 1000]; 25% score_only.
flsa::service::AlignRequest serve_request(std::uint64_t seed,
                                          std::uint64_t stream,
                                          std::uint64_t index);

/// DPM cells |a| * |b| of a request (0 for SEARCH).
double request_cells(const Request& request);

/// Share of requests whose content repeats an earlier one.
double repeat_share(const std::vector<const std::vector<Request>*>& phases);

/// Checks every answered ALIGN of a run against the oracle on `threads`
/// threads; returns the failures (at most a few, with context).
std::vector<std::string> verify_aligns(const std::vector<Request>& requests,
                                       const OpenLoopRun& run,
                                       unsigned threads);

}  // namespace pb
