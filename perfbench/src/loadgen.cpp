#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "service/client.hpp"

namespace pb {

namespace svc = flsa::service;

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    out.push_back(t);
  }
  return out;
}

void check_generator_limits(unsigned connections, unsigned limit) {
  if (connections == 0 || connections > limit ||
      generator_threads(connections) > limit) {
    throw std::runtime_error(
        "load generator would use " + std::to_string(connections) +
        " connections and " + std::to_string(generator_threads(connections)) +
        " threads, over the limit of " + std::to_string(limit));
  }
}

bool failed(const Sample& sample) {
  return !sample.answered ||
         std::holds_alternative<svc::ErrorResponse>(sample.response);
}

namespace {

std::uint64_t response_id(const svc::Response& response) {
  return std::visit([](const auto& r) { return r.request_id; }, response);
}

}  // namespace

OpenLoopRun run_open_loop(std::uint16_t port,
                          const std::vector<Request>& requests,
                          const std::vector<double>& schedule,
                          unsigned connections) {
  const std::size_t n = std::min(requests.size(), schedule.size());
  std::vector<svc::Client> clients(connections);
  for (svc::Client& client : clients) client.connect("127.0.0.1", port);

  // Each thread writes only its own vectors; everything is combined after
  // the joins, so no slot is shared between a sender and a receiver.
  std::vector<Clock::time_point> sent(n), answered_at(n);
  std::vector<svc::Response> responses(n);
  std::vector<char> answered(n, 0);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[k]));
  };

  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t k = c; k < n; k += connections) {
          std::this_thread::sleep_until(due(k));
          sent[k] = Clock::now();
          std::visit(
              [&](auto request) {
                request.request_id = k + 1;
                clients[c].send(std::move(request));
              },
              requests[k]);
        }
      } catch (const std::exception&) {
        // Unsent requests stay unanswered and count as failed.
      }
    });
    threads.emplace_back([&, c] {
      const std::size_t expected = n > c ? (n - c + connections - 1) / connections : 0;
      try {
        for (std::size_t i = 0; i < expected; ++i) {
          svc::Response response = clients[c].receive();
          const Clock::time_point now = Clock::now();
          const std::uint64_t id = response_id(response);
          if (id == 0 || id > n || (id - 1) % connections != c) break;
          answered_at[id - 1] = now;
          responses[id - 1] = std::move(response);
          answered[id - 1] = 1;
        }
      } catch (const std::exception&) {
        // Connection lost: the rest stay unanswered (failed).
      }
    });
  }
  for (std::thread& t : threads) t.join();

  OpenLoopRun run;
  run.start = start;
  run.samples.resize(n);
  Clock::time_point last = start;
  for (std::size_t k = 0; k < n; ++k) {
    Sample& s = run.samples[k];
    s.scheduled_s = schedule[k];
    s.late_ms = ms_between(due(k), sent[k]);
    s.answered = answered[k] != 0;
    if (!s.answered) continue;
    s.response = std::move(responses[k]);
    s.latency_ms = ms_between(due(k), answered_at[k]);
    s.round_trip_ms = ms_between(sent[k], answered_at[k]);
    last = std::max(last, answered_at[k]);
  }
  run.span_s = n == 0 ? 0.0 : seconds_between(due(0), last);
  return run;
}

double windowed_quantile(const OpenLoopRun& run,
                         const std::function<double(std::size_t)>& value,
                         double p, double across) {
  std::vector<TimedValue> samples;
  for (std::size_t k = 0; k < run.samples.size(); ++k) {
    const double v = value(k);
    if (!std::isnan(v)) samples.push_back({run.samples[k].scheduled_s, v});
  }
  return pb::windowed_quantile(samples, p, across, kPhaseWindows);
}

double punctual_quantile(const OpenLoopRun& run,
                         const std::function<double(std::size_t)>& value,
                         double p, double warmup_s) {
  double end = warmup_s;
  for (const Sample& s : run.samples) end = std::max(end, s.scheduled_s);
  struct Window {
    std::vector<double> late, values;
  };
  std::vector<Window> windows(kPunctualWindows);
  std::vector<double> all;
  for (std::size_t k = 0; k < run.samples.size(); ++k) {
    const Sample& s = run.samples[k];
    if (s.scheduled_s < warmup_s) continue;
    const auto w = static_cast<std::size_t>(
        end > warmup_s ? (s.scheduled_s - warmup_s) / (end - warmup_s) *
                             static_cast<double>(kPunctualWindows)
                       : 0.0);
    Window& window = windows[std::min(w, kPunctualWindows - 1)];
    window.late.push_back(s.late_ms);
    const double v = value(k);
    if (std::isnan(v)) continue;
    window.values.push_back(v);
    all.push_back(v);
  }
  std::vector<std::pair<double, double>> ranked;  // (lateness p95, quantile)
  for (Window& window : windows) {
    if (window.values.size() < kMinWindowSamples) continue;
    ranked.emplace_back(quantile(std::move(window.late), 0.95),
                        quantile(std::move(window.values), p));
  }
  if (ranked.empty()) return quantile(std::move(all), p);
  // By lateness only: equally punctual windows keep their time order, so
  // ties never favour the faster windows.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::size_t keep = std::max<std::size_t>(1, ranked.size() / 4);
  while (keep < ranked.size() &&
         ranked[keep].first <= kPunctualFactor * ranked.front().first) {
    ++keep;
  }
  std::vector<double> kept;
  for (std::size_t i = 0; i < keep; ++i) kept.push_back(ranked[i].second);
  return median(std::move(kept));
}

bool backlog_grew(const std::vector<double>& latency, double margin_ms) {
  if (latency.size() < 8) return false;
  const std::size_t q = latency.size() / 4;
  const std::vector<double> first(latency.begin(), latency.begin() + q);
  const std::vector<double> last(latency.end() - q, latency.end());
  return median(last) - median(first) > margin_ms;
}

PhaseStats summarize(const OpenLoopRun& run, double p95_limit_ms) {
  PhaseStats stats;
  stats.attempted = run.samples.size();
  std::vector<double> latency, late;
  latency.reserve(run.samples.size());
  late.reserve(run.samples.size());
  for (const Sample& s : run.samples) {
    late.push_back(s.late_ms);
    if (failed(s)) {
      ++stats.failed;
      continue;
    }
    latency.push_back(s.latency_ms);
  }
  const auto ok_latency = [&](std::size_t k) {
    return failed(run.samples[k]) ? std::nan("") : run.samples[k].latency_ms;
  };
  stats.p50_ms = windowed_quantile(run, ok_latency, 0.50, 0.5);
  stats.p95_ms = windowed_quantile(run, ok_latency, 0.95, 0.5);
  stats.p99_ms = quantile(latency, 0.99);
  stats.late_p95_ms = quantile(late, 0.95);
  stats.achieved_rps =
      run.span_s > 0.0
          ? static_cast<double>(stats.attempted - stats.failed) / run.span_s
          : 0.0;
  stats.backlog_grew = backlog_grew(latency, 0.5 * p95_limit_ms);
  return stats;
}

std::vector<double> geometric_ladder(double lo, double ratio, std::size_t n) {
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = std::round(lo * std::pow(ratio, static_cast<double>(i)));
  }
  return rates;
}

bool rung_passes(const RungResult& rung, const LadderSpec& spec) {
  return rung.stats.attempted > 0 && rung.stats.failed == 0 &&
         !rung.stats.backlog_grew &&
         rung.stats.p95_ms <= spec.p95_limit_ms &&
         rung.stats.late_p95_ms <= spec.max_late_ms;
}

double staircase(const LadderSpec& spec,
                 const std::function<RungResult(std::size_t, std::size_t)>& run,
                 std::vector<Probe>* trail) {
  const long top = static_cast<long>(spec.rates.size()) - 1;
  long rung = std::min(static_cast<long>(spec.start), top);
  long step = 2;
  bool reversed = false;
  int last = 0;  // +1 after a pass, -1 after a failure, 0 before any probe
  std::vector<double> all, settled;
  for (std::size_t p = 0; p < spec.probes; ++p) {
    Probe probe;
    probe.rung = static_cast<std::size_t>(rung);
    probe.result = run(probe.rung, p);
    probe.pass = rung_passes(probe.result, spec);
    const int move = probe.pass ? 1 : -1;
    if (last != 0 && move != last) {
      reversed = true;
      step = std::max(step / 2, 1L);
    } else if (last != 0 && !reversed) {
      step = std::min(step * 2, 4L);  // still searching: stride out
    }
    if (reversed && step == 1) settled.push_back(probe.result.offered_rps);
    all.push_back(probe.result.offered_rps);
    last = move;
    rung = std::clamp(rung + move * step, 0L, top);
    if (trail != nullptr) trail->push_back(std::move(probe));
  }
  const std::vector<double>& used = settled.empty() ? all : settled;
  double sum = 0.0;
  for (double rate : used) sum += rate;
  return used.empty() ? 0.0 : sum / static_cast<double>(used.size());
}

}  // namespace pb
