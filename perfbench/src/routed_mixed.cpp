// routed_mixed: an in-process Router (replication 2) in front of two
// single-worker backends, under open-loop traffic of small protein ALIGNs
// and DNA SEARCHes against a 1 Mbp reference registered at set-up.
//
// Per-ALIGN DP work is on the order of the router hop and the frame codec,
// so router, protocol and observability overheads show here. SEARCH is
// placement-pinned and never coalesced; ALIGN is routed least-loaded and
// may be coalesced; two replicas give hedges a distinct peer.
#include <memory>

#include "obs/metrics.hpp"
#include "openloop.hpp"
#include "oracle.hpp"
#include "router/router.hpp"
#include "search/reference_index.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace pb {

namespace svc = flsa::service;

namespace {

constexpr std::size_t kReferenceLength = 1000000;
constexpr std::uint32_t kSeedK = 12;
constexpr double kSearchShare = 0.15;
constexpr double kUnmatchedShare = 0.25;  ///< of SEARCHes: random reads
/// Backend queue: as in serve_small, deep enough that a host stall shows
/// as latency, not as refused requests (the router's own per-backend
/// queue already holds 256).
constexpr std::size_t kQueueCapacity = 256;
constexpr double kFixedRate = 2500.0;
constexpr double kP95LimitMs = 15.0;
constexpr double kMaxLateMs = 5.0;

/// The running fleet and what set-up registered on it.
struct Fleet {
  std::vector<std::unique_ptr<svc::AlignmentServer>> backends;
  std::unique_ptr<flsa::router::Router> router;
  std::uint64_t ref_id = 0;
  double index_build_s = 0.0;

  void stop() {
    if (router) router->stop();
    for (auto& backend : backends) backend->stop();
    router.reset();
    backends.clear();
  }
};

struct Shared {
  std::uint64_t seed = 0;
  std::string reference;
  Fleet fleet;
  /// The in-process index SEARCH answers are checked against, built on
  /// first use from the same reference and seed length.
  std::unique_ptr<flsa::search::ReferenceIndex> oracle_index;
};

std::uint16_t start_fleet(Shared& shared) {
  Fleet& fleet = shared.fleet;
  flsa::router::RouterConfig config;
  config.replication = 2;
  for (int b = 0; b < 2; ++b) {
    svc::ServiceConfig backend;
    backend.workers = 1;
    backend.queue_capacity = kQueueCapacity;
    fleet.backends.push_back(std::make_unique<svc::AlignmentServer>(backend));
    fleet.backends.back()->start();
    config.backends.push_back({"127.0.0.1", fleet.backends.back()->port()});
  }
  fleet.router = std::make_unique<flsa::router::Router>(config);
  fleet.router->start();

  svc::Client client;
  client.connect("127.0.0.1", fleet.router->port());
  svc::RefPutRequest put;
  put.matrix = svc::WireMatrix::kDna;
  put.k = kSeedK;
  put.name = "perfbench-reference";
  put.sequence = shared.reference;
  const svc::Response response = client.call(std::move(put));
  const auto* ok = std::get_if<svc::RefPutResponse>(&response);
  if (ok == nullptr) throw std::runtime_error("REF_PUT of the reference failed");
  fleet.ref_id = ok->ref_id;
  fleet.index_build_s = static_cast<double>(ok->build_micros) * 1e-6;
  return fleet.router->port();
}

Request routed_request(const Shared& shared, std::uint64_t stream,
                       std::size_t index) {
  Rng rng(stream_seed(shared.seed, stream, index));
  if (rng.uniform() >= kSearchShare) {
    svc::AlignRequest request;
    request.matrix = svc::WireMatrix::kMdm78;
    request.gap_extend = -10;
    request.a = random_letters(rng, kProteinLetters, log_uniform(rng, 64, 256));
    request.b = mutate(rng, request.a, kProteinLetters, Mutation{});
    return request;
  }
  svc::SearchRequest request;
  request.ref_id = shared.fleet.ref_id;
  request.matrix = svc::WireMatrix::kDna;
  const std::size_t length = log_uniform(rng, 150, 1000);
  if (rng.uniform() < kUnmatchedShare) {
    request.query = random_letters(rng, kDnaLetters, length);
  } else {
    const std::size_t at = rng.below(shared.reference.size() - length);
    request.query = mutate(rng, std::string_view(shared.reference).substr(at, length),
                           kDnaLetters, Mutation{0.03, 0.005, 0.005, 0.3});
  }
  return request;
}

OpenLoopSpec routed_spec(const std::shared_ptr<Shared>& shared) {
  OpenLoopSpec spec;
  spec.name = "routed_mixed";
  spec.fixed_rate = kFixedRate;
  // 2000-12600/s in 4% steps; the staircase starts at 4214/s (rung 19).
  spec.ladder = {geometric_ladder(2000.0, 1.04, 48), kP95LimitMs, kMaxLateMs,
                 19, 10};
  spec.stream_base = 2000;
  spec.setup_repeats = 3;
  spec.warmup_requests = 200;
  spec.start = [shared] { return start_fleet(*shared); };
  spec.stop = [shared] { shared->fleet.stop(); };
  spec.request = [shared](std::uint64_t stream, std::size_t index) {
    return routed_request(*shared, stream, index);
  };
  spec.kind = [shared](const Request& request) {
    if (const auto* search = std::get_if<svc::SearchRequest>(&request)) {
      // Effective cells: the full DP the search stands in for.
      return RequestKind{RequestKind::kDna,
                         static_cast<double>(search->query.size()) *
                             static_cast<double>(shared->reference.size())};
    }
    return RequestKind{RequestKind::kProtein, request_cells(request)};
  };
  spec.verify = [shared](const std::vector<Request>& requests,
                         const OpenLoopRun& run, unsigned threads) {
    std::vector<std::string> errors = verify_aligns(requests, run, threads);
    if (!shared->oracle_index) {
      shared->oracle_index = std::make_unique<flsa::search::ReferenceIndex>(
          flsa::Sequence(flsa::Alphabet::dna(), shared->reference), kSeedK);
    }
    const flsa::search::ReferenceIndex& index = *shared->oracle_index;
    const flsa::search::ChainedSearchParams params =
        svc::ServiceConfig{}.search_defaults;
    std::mutex mutex;
    parallel_for(requests.size(), threads, [&](std::size_t k) {
      const auto* search = std::get_if<svc::SearchRequest>(&requests[k]);
      if (search == nullptr || failed(run.samples[k])) return;
      std::string error;
      try {
        error = check_search(*search, run.samples[k].response, index, params);
      } catch (const std::exception& e) {
        error = std::string("search oracle threw: ") + e.what();
      }
      if (error.empty()) return;
      std::lock_guard<std::mutex> lock(mutex);
      if (errors.size() < 6) errors.push_back("request " + std::to_string(k) + ": " + error);
    });
    return errors;
  };
  return spec;
}

std::shared_ptr<Shared> make_shared_state(std::uint64_t seed) {
  auto shared = std::make_shared<Shared>();
  shared->seed = seed;
  Rng rng(stream_seed(seed, kRoutedReference));
  shared->reference = random_letters(rng, kDnaLetters, kReferenceLength);
  return shared;
}

}  // namespace

RunOutput run_routed_mixed(const RunOptions& options) {
  return run_open_loop_workload(routed_spec(make_shared_state(options.seed)),
                                options);
}

void router_layers(const RunOptions& options, SpanLog& spans, RunOutput& out) {
  const std::shared_ptr<Shared> shared = make_shared_state(options.seed);
  const OpenLoopSpec spec = routed_spec(shared);
  const unsigned connections = generator_connections(options.cores);
  auto& registry = flsa::obs::metrics();
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const char* names[] = {"router.hedge.issued", "router.hedge.won",
                         "router.coalesce.batches", "router.coalesce.jobs",
                         "router.failovers"};
  std::uint16_t port = 0;
  timed_setup(spec, 0, &port, &out.errors);
  const double build_s = shared->fleet.index_build_s;
  std::vector<double> before;
  for (const char* name : names) before.push_back(counter(name));
  const Phase phase = run_phase(spec, port, options.seed, spec.stream_base + 1,
                                spec.stream_base + 2, spec.fixed_rate,
                                options.seconds / 4, connections);
  std::vector<double> delta;
  for (std::size_t i = 0; i < std::size(names); ++i) {
    delta.push_back(counter(names[i]) - before[i]);
  }
  spec.stop();
  for (std::string& e : spec.verify(phase.requests, phase.run, options.cores)) {
    out.errors.push_back(std::move(e));
  }

  std::vector<double> overhead_ms, search_exec_ms;
  double anchors = 0.0, hits = 0.0, searches = 0.0;
  for (const Sample& s : phase.run.samples) {
    if (!s.answered) continue;
    if (const auto* ok = std::get_if<svc::AlignResponse>(&s.response)) {
      overhead_ms.push_back(
          s.round_trip_ms -
          static_cast<double>(ok->queue_micros + ok->exec_micros) * 1e-3);
    } else if (const auto* found = std::get_if<svc::SearchResponse>(&s.response)) {
      search_exec_ms.push_back(static_cast<double>(found->exec_micros) * 1e-3);
      anchors += static_cast<double>(found->anchors);
      hits += static_cast<double>(found->hits.size());
      searches += 1.0;
    }
  }
  record_request_spans(phase, spans);
  out.attempted += phase.stats.attempted;
  out.failed += phase.stats.failed;
  out.metrics.insert(
      out.metrics.end(),
      {{"router.overhead_ms", median(overhead_ms), "ms"},
       {"router.hedges_issued", delta[0], "count"},
       {"router.hedges_won", delta[1], "count"},
       {"router.hedge_win_ratio", delta[0] > 0.0 ? delta[1] / delta[0] : 0.0,
        "ratio"},
       {"router.coalesce_jobs_per_batch",
        delta[2] > 0.0 ? delta[3] / delta[2] : 0.0, "ratio"},
       {"router.failovers", delta[4], "count"},
       {"search.exec_ms", median(search_exec_ms), "ms"},
       {"search.anchors_per_query", searches > 0.0 ? anchors / searches : 0.0,
        "count"},
       {"search.hits_per_query", searches > 0.0 ? hits / searches : 0.0,
        "count"},
       {"search.index_build_s", build_s, "s"}});
  out.notes.push_back("router pass: " + std::to_string(phase.stats.attempted) +
                      " requests, late_p95 " +
                      std::to_string(phase.stats.late_p95_ms) + " ms");
}

double routed_mixed_overhead(const RunOptions& options, SpanLog& spans) {
  return open_loop_overhead(routed_spec(make_shared_state(options.seed)),
                            options, spans);
}

}  // namespace pb
