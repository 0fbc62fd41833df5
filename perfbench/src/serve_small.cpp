// serve_small: an in-process AlignmentServer (2 workers) on loopback under
// open-loop Poisson traffic of distinct small pairs.
//
// At the default base_case_cells every request fits the scalar base case,
// so base-case, traceback, score_only routing, queueing and admission
// changes show here, and kernel-tier changes should not.
#include <memory>

#include "obs/obs.hpp"
#include "openloop.hpp"
#include "oracle.hpp"
#include "service/server.hpp"

namespace pb {

namespace svc = flsa::service;

namespace {

constexpr unsigned kWorkers = 2;
/// Four times the default: on a shared host a stall of a few tens of
/// milliseconds would otherwise overflow the queue at the fixed rate and
/// turn host noise into refused requests.
constexpr std::size_t kQueueCapacity = 256;
/// About a third of max_rate_rps: queueing still shows in p95, but a busy
/// host does not multiply into it as it does nearer capacity (ten-second
/// phases on a shared host: p50 spread 20% at 600/s, 78% at 1200/s).
constexpr double kFixedRate = 800.0;
constexpr double kP95LimitMs = 15.0;
constexpr double kMaxLateMs = 5.0;

OpenLoopSpec make_spec(std::uint64_t seed) {
  // The running server, shared by the start and stop callbacks.
  auto server = std::make_shared<std::unique_ptr<svc::AlignmentServer>>();
  OpenLoopSpec spec;
  spec.name = "serve_small";
  spec.fixed_rate = kFixedRate;
  // 1200-4800/s in 3% steps. The staircase starts at 2043/s (rung 18),
  // near where it settled on a 4-vCPU host (1700-2400/s): probes spent
  // climbing to it are not averaged, and on a shallow pass-rate curve a
  // start four rungs low left the estimate spread about a third wider in
  // simulation.
  spec.ladder = {geometric_ladder(1200.0, 1.03, 48), kP95LimitMs, kMaxLateMs,
                 18, 10};
  spec.stream_base = 1000;
  spec.setup_repeats = 5;
  spec.warmup_requests = 200;
  spec.start = [server] {
    svc::ServiceConfig config;
    config.workers = kWorkers;
    config.queue_capacity = kQueueCapacity;
    *server = std::make_unique<svc::AlignmentServer>(config);
    (*server)->start();
    return (*server)->port();
  };
  spec.stop = [server] {
    if (*server) (*server)->stop();
    server->reset();
  };
  spec.request = [seed](std::uint64_t stream, std::size_t index) -> Request {
    return serve_request(seed, stream, index);
  };
  spec.kind = [](const Request& request) {
    const auto& align = std::get<svc::AlignRequest>(request);
    return RequestKind{align.matrix == svc::WireMatrix::kDna
                           ? RequestKind::kDna
                           : RequestKind::kProtein,
                       request_cells(request)};
  };
  spec.verify = verify_aligns;
  return spec;
}

}  // namespace

RunOutput run_serve_small(const RunOptions& options) {
  return run_open_loop_workload(make_spec(options.seed), options);
}

void service_layers(const RunOptions& options, SpanLog& spans,
                    RunOutput& out) {
  const OpenLoopSpec spec = make_spec(options.seed);
  const unsigned connections = generator_connections(options.cores);
  std::uint16_t port = 0;
  timed_setup(spec, 0, &port, &out.errors);
  const Phase phase = run_phase(spec, port, options.seed, spec.stream_base + 1,
                                spec.stream_base + 2, spec.fixed_rate,
                                options.seconds / 4, connections);
  spec.stop();
  for (std::string& e : spec.verify(phase.requests, phase.run, options.cores)) {
    out.errors.push_back(std::move(e));
  }

  std::vector<double> queue_ms, exec_ms, wire_ms, codec_us;
  for (std::size_t k = 0; k < phase.run.samples.size(); ++k) {
    const Sample& s = phase.run.samples[k];
    const auto* ok = std::get_if<svc::AlignResponse>(&s.response);
    if (!s.answered || ok == nullptr) continue;
    const double q = static_cast<double>(ok->queue_micros) * 1e-3;
    const double e = static_cast<double>(ok->exec_micros) * 1e-3;
    queue_ms.push_back(q);
    exec_ms.push_back(e);
    wire_ms.push_back(s.round_trip_ms - q - e);

    // The codec on this request's own frames: both directions, both ends.
    const auto& request = std::get<svc::AlignRequest>(phase.requests[k]);
    const Clock::time_point t0 = Clock::now();
    const svc::Request decoded_request =
        svc::decode_request(svc::encode(request));
    const svc::Response decoded_response =
        svc::decode_response(svc::encode(*ok));
    const Clock::time_point t1 = Clock::now();
    codec_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (!std::holds_alternative<svc::AlignRequest>(decoded_request) ||
        !std::holds_alternative<svc::AlignResponse>(decoded_response)) {
      out.errors.push_back("codec round trip changed the verb");
    }
  }
  record_request_spans(phase, spans);
  out.attempted += phase.stats.attempted;
  out.failed += phase.stats.failed;
  out.metrics.insert(
      out.metrics.end(),
      {{"service.codec_us", median(codec_us), "us"},
       {"service.queue_ms", median(queue_ms), "ms"},
       {"service.exec_ms", median(exec_ms), "ms"},
       {"service.wire_ms", median(wire_ms), "ms"},
       {"service.rejected", static_cast<double>(phase.stats.failed), "count"},
       {"loadgen.late_p95_ms", phase.stats.late_p95_ms, "ms"},
       {"loadgen.failed_frac",
        phase.stats.attempted == 0
            ? 0.0
            : static_cast<double>(phase.stats.failed) /
                  static_cast<double>(phase.stats.attempted),
        "ratio"},
       {"loadgen.repeat_share", repeat_share({&phase.requests}), "ratio"}});
}

double serve_small_overhead(const RunOptions& options, SpanLog& spans) {
  return open_loop_overhead(make_spec(options.seed), options, spans);
}

}  // namespace pb
