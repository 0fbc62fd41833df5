#include "openloop.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "service/client.hpp"

namespace pb {

namespace svc = flsa::service;

namespace {

constexpr std::chrono::milliseconds kSettle{500};
/// Share of --seconds spent at the fixed rate; the ladder has the rest.
constexpr double kFixedShare = 0.5;
/// Requests due in the first seconds of the fixed-rate phase are served
/// and checked but not timed: the generator often ran 2-4 ms late (p95) in
/// the first second of a phase even when it kept time to 0.1 ms after.
constexpr double kWarmupS = 2.0;

}  // namespace

unsigned generator_connections(unsigned cores) {
  return std::clamp(cores / 2, 1u, 2u);
}

Phase run_phase(const OpenLoopSpec& spec, std::uint16_t port,
                std::uint64_t seed, std::uint64_t request_stream,
                std::uint64_t schedule_stream, double rate, double seconds,
                unsigned connections) {
  Phase phase;
  phase.rate = rate;
  const std::vector<double> schedule =
      poisson_schedule(stream_seed(seed, schedule_stream), rate, seconds);
  phase.requests.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    phase.requests.push_back(spec.request(request_stream, i));
  }
  phase.run = run_open_loop(port, phase.requests, schedule, connections);
  phase.stats = summarize(phase.run, spec.ladder.p95_limit_ms);
  return phase;
}

double timed_setup(const OpenLoopSpec& spec, int repeat, std::uint16_t* port,
                   std::vector<std::string>* errors) {
  const Clock::time_point t0 = Clock::now();
  *port = spec.start();
  svc::Client client;
  client.connect("127.0.0.1", *port);
  for (std::size_t i = 0; i < spec.warmup_requests; ++i) {
    const Request request = spec.request(
        spec.stream_base,
        static_cast<std::size_t>(repeat) * spec.warmup_requests + i);
    const svc::Response response = std::visit(
        [&](auto r) { return client.call(std::move(r)); }, request);
    if (std::holds_alternative<svc::ErrorResponse>(response)) {
      errors->push_back(std::string(spec.name) + ": warm-up request failed: " +
                        std::get<svc::ErrorResponse>(response).message);
      break;
    }
  }
  client.close();
  return seconds_between(t0, Clock::now());
}

namespace {

/// Cell rate of one request kind inside the service: cells / the server's
/// exec_micros per answered request, median per window, median over
/// windows, in Gcell/s. Queueing and the wire are left to the latency
/// metrics.
double kind_rate(const OpenLoopSpec& spec, const Phase& phase,
                 RequestKind::Kind kind) {
  return windowed_quantile(
      phase.run,
      [&](std::size_t k) {
        const Sample& s = phase.run.samples[k];
        const RequestKind rk = spec.kind(phase.requests[k]);
        if (failed(s) || rk.kind != kind) return std::nan("");
        std::uint64_t exec_us = 0;
        if (const auto* a = std::get_if<svc::AlignResponse>(&s.response)) {
          exec_us = a->exec_micros;
        } else if (const auto* f = std::get_if<svc::SearchResponse>(&s.response)) {
          exec_us = f->exec_micros;
        }
        return rk.cells / static_cast<double>(std::max<std::uint64_t>(exec_us, 1)) * 1e-3;
      },
      0.5, 0.5);
}

std::string describe(const PhaseStats& stats) {
  char line[256];
  std::snprintf(line, sizeof line,
                "n=%zu failed=%zu p50=%.3fms p95=%.3fms p99=%.3fms "
                "late_p95=%.3fms achieved=%.1f/s backlog=%s",
                stats.attempted, stats.failed, stats.p50_ms, stats.p95_ms,
                stats.p99_ms, stats.late_p95_ms, stats.achieved_rps,
                stats.backlog_grew ? "grew" : "flat");
  return line;
}

}  // namespace

RunOutput run_open_loop_workload(const OpenLoopSpec& spec,
                                 const RunOptions& options) {
  RunOutput out;
  const unsigned connections = generator_connections(options.cores);
  check_generator_limits(connections, options.cores);

  std::vector<double> setup_s;
  std::uint16_t port = 0;
  setup_s.push_back(timed_setup(spec, 0, &port, &out.errors));

  // The fixed rate first, then the ladder. The fixed rate comes first: an
  // overloaded probe can leave the system degraded for seconds afterwards
  // (measured on routed_mixed: p50 at 3900/s went from 0.3 ms to 3-6 ms
  // for 10 s after a probe at 7300/s), and latency at the fixed rate
  // describes the system in normal operation.
  const double fixed_s = options.seconds * kFixedShare;
  const Phase fixed =
      run_phase(spec, port, options.seed, spec.stream_base + 1,
                spec.stream_base + 2, spec.fixed_rate, fixed_s, connections);
  // Peak memory through set-up and the fixed rate: how many requests the
  // ladder keeps for verification depends on how its probes went.
  const double rss = peak_rss_mb();
  const double probe_s = (options.seconds - fixed_s) /
                         static_cast<double>(spec.ladder.probes);
  std::vector<Phase> probes;
  std::vector<Probe> trail;
  const double max_rate = staircase(
      spec.ladder,
      [&](std::size_t rung, std::size_t p) {
        Phase phase = run_phase(spec, port, options.seed,
                                spec.stream_base + 10 + p,
                                spec.stream_base + 500 + p,
                                spec.ladder.rates[rung], probe_s, connections);
        RungResult result{phase.rate,
                          static_cast<double>(phase.requests.size()) / probe_s,
                          phase.stats};
        probes.push_back(std::move(phase));
        // Every answer is in, but an overloaded probe leaves hedged copies
        // running on the backends; let them finish before the next probe.
        if (!rung_passes(result, spec.ladder)) std::this_thread::sleep_for(kSettle);
        return result;
      },
      &trail);
  spec.stop();
  // The other set-ups run after the measurement, so the memory they leave
  // in the allocator does not inflate peak_rss_mb.
  for (int r = 1; r < spec.setup_repeats; ++r) {
    setup_s.push_back(timed_setup(spec, r, &port, &out.errors));
    spec.stop();
  }

  // Verification, untimed: every answered request of every phase.
  std::vector<const std::vector<Request>*> inputs{&fixed.requests};
  for (const Phase& phase : probes) inputs.push_back(&phase.requests);
  const double repeats = repeat_share(inputs);
  if (repeats > 0.0) {
    out.errors.push_back("repeated inputs: share " + std::to_string(repeats));
  }
  for (std::string& e : spec.verify(fixed.requests, fixed.run, options.cores)) {
    out.errors.push_back(std::move(e));
  }
  for (const Phase& phase : probes) {
    for (std::string& e : spec.verify(phase.requests, phase.run, options.cores)) {
      out.errors.push_back(std::move(e));
    }
  }

  if (fixed.stats.late_p95_ms > spec.ladder.max_late_ms) {
    out.invalid = "generator ran late: p95 " +
                  std::to_string(fixed.stats.late_p95_ms) + " ms > " +
                  std::to_string(spec.ladder.max_late_ms) + " ms";
  }

  // Counted operations: the fixed-rate phase and every probe that passed.
  // Failing probes are overload probes, expected to refuse work.
  out.attempted = fixed.stats.attempted;
  out.failed = fixed.stats.failed;
  for (const Probe& probe : trail) {
    if (!probe.pass) continue;
    out.attempted += probe.result.stats.attempted;
    out.failed += probe.result.stats.failed;
  }
  double align_cells = 0.0;
  for (const Request& request : fixed.requests) align_cells += request_cells(request);
  const double cells_per_request =
      fixed.requests.empty() ? 0.0 : align_cells / static_cast<double>(fixed.requests.size());

  const auto ok_latency = [&](std::size_t k) {
    const Sample& s = fixed.run.samples[k];
    return failed(s) ? std::nan("") : s.latency_ms;
  };
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"align_protein_gcups", kind_rate(spec, fixed, RequestKind::kProtein),
       "Gcell/s"},
      {"align_dna_gcups", kind_rate(spec, fixed, RequestKind::kDna),
       "Gcell/s"},
      {"align_par_gcups", max_rate * cells_per_request * 1e-9, "Gcell/s"},
      {"p50_ms", punctual_quantile(fixed.run, ok_latency, 0.50, kWarmupS), "ms"},
      {"p95_ms", punctual_quantile(fixed.run, ok_latency, 0.95, kWarmupS), "ms"},
      {"max_rate_rps", max_rate, "1/s"},
      {"peak_rss_mb", rss, "MiB"},
  };

  char head[256];
  std::snprintf(head, sizeof head,
                "%s: fixed rate %.0f/s for %.2fs (first %.0fs untimed), "
                "%zu probes of %.2fs, p95 limit %.1fms, %u connections, "
                "%u generator threads",
                spec.name, spec.fixed_rate, fixed_s, kWarmupS,
                spec.ladder.probes, probe_s, spec.ladder.p95_limit_ms,
                connections, generator_threads(connections));
  out.notes.push_back(head);
  out.notes.push_back("fixed: " + describe(fixed.stats) + " failed_frac " +
                      std::to_string(fixed.stats.attempted == 0
                                         ? 0.0
                                         : double(fixed.stats.failed) /
                                               double(fixed.stats.attempted)));
  for (const Probe& probe : trail) {
    out.notes.push_back("probe rung " + std::to_string(probe.rung) + " @" +
                        std::to_string(static_cast<int>(probe.result.rate)) +
                        "/s " + (probe.pass ? "pass " : "FAIL ") +
                        describe(probe.result.stats));
  }
  out.notes.push_back("repeated inputs share " + std::to_string(repeats));
  return out;
}

void record_request_spans(const Phase& phase, SpanLog& spans) {
  auto at = [&](double offset_ms) {
    return phase.run.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     offset_ms));
  };
  for (std::size_t k = 0; k < phase.run.samples.size(); ++k) {
    const Sample& s = phase.run.samples[k];
    if (!s.answered) continue;
    const double due_ms = s.scheduled_s * 1e3;
    const SpanLog::Id parent =
        spans.record("loadgen.request", at(due_ms), at(due_ms + s.latency_ms),
                     0, k + 1);
    spans.record("client.round_trip", at(due_ms + s.late_ms),
                 at(due_ms + s.latency_ms), parent, k + 1);
  }
}

double open_loop_overhead(const OpenLoopSpec& spec, const RunOptions& options,
                          SpanLog& spans) {
  const unsigned connections = generator_connections(options.cores);
  std::vector<std::string> errors;
  std::uint16_t port = 0;
  timed_setup(spec, 0, &port, &errors);
  const double seconds = options.seconds / 8;
  const Phase plain =
      run_phase(spec, port, options.seed, spec.stream_base + 3,
                spec.stream_base + 4, spec.fixed_rate, seconds, connections);
  flsa::obs::TraceRecorder recorder;
  flsa::obs::set_active_trace(&recorder);
  const Phase traced =
      run_phase(spec, port, options.seed, spec.stream_base + 5,
                spec.stream_base + 6, spec.fixed_rate, seconds, connections);
  flsa::obs::set_active_trace(nullptr);
  spec.stop();
  record_request_spans(traced, spans);
  return plain.stats.p50_ms > 0.0 ? traced.stats.p50_ms / plain.stats.p50_ms
                                  : 0.0;
}

}  // namespace pb
