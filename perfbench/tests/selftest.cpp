// Tests of the benchmark's own code: exact percentiles, windowed and
// punctual-window quantiles, Poisson schedule determinism, the max-rate
// staircase on a synthetic latency curve, input generation and the CIGAR
// re-scorer the correctness gate relies on.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "scoring/builtin.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double x, double y) { return std::fabs(x - y) < 1e-9; }

void test_quantiles() {
  // Type-7 values, as numpy.percentile / R quantile(type = 7) give them.
  const std::vector<double> s = {15, 20, 35, 40, 50};
  CHECK(near(pb::quantile(s, 0.0), 15));
  CHECK(near(pb::quantile(s, 0.4), 29));
  CHECK(near(pb::quantile(s, 0.5), 35));
  CHECK(near(pb::quantile(s, 0.95), 48));
  CHECK(near(pb::quantile(s, 1.0), 50));
  CHECK(near(pb::median({3, 1, 2, 4}), 2.5));
  CHECK(near(pb::median({7}), 7));
  CHECK(near(pb::quantile({}, 0.5), 0));
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  CHECK(near(pb::quantile(ramp, 0.95), 95.05));
  CHECK(near(pb::quantile(ramp, 0.99), 99.01));
}

void test_poisson_schedule() {
  const auto a = pb::poisson_schedule(42, 2000.0, 3.0);
  const auto b = pb::poisson_schedule(42, 2000.0, 3.0);
  const auto c = pb::poisson_schedule(43, 2000.0, 3.0);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(!a.empty() && a.front() >= 0.0 && a.back() < 3.0);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  CHECK(ascending);
  // 6000 expected arrivals; 5 standard deviations is ~390.
  CHECK(std::fabs(static_cast<double>(a.size()) - 6000.0) < 400.0);
  // Exponential gaps: mean 1/rate, coefficient of variation near 1.
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum2 / n - mean * mean) / mean;
  CHECK(std::fabs(mean - 0.0005) < 0.00005);
  CHECK(std::fabs(cv - 1.0) < 0.1);
}

/// A synthetic M/M/1-like latency curve: p95 = base / (1 - rate/capacity),
/// and overload (rate >= capacity) fails requests.
pb::RungResult synthetic(double rate, double capacity) {
  pb::RungResult r;
  r.rate = rate;
  r.stats.attempted = 1000;
  if (rate >= capacity) {
    r.stats.failed = 10;
    r.stats.p95_ms = 1e9;
  } else {
    r.stats.p95_ms = 1.0 / (1.0 - rate / capacity);
  }
  return r;
}

void test_ladder() {
  const std::vector<double> rates = pb::geometric_ladder(1000.0, 1.05, 32);
  CHECK(rates.size() == 32 && near(rates[0], 1000.0) && near(rates[1], 1050.0));
  const pb::LadderSpec spec{rates, 10.0, 2.0, 8, 10};
  // On a noiseless curve the staircase settles between the highest passing
  // rung and the one above it, from either side of its start (rung 8 =
  // 1477/s), including a capacity far above the start.
  for (double capacity : {1300.0, 2000.0, 2400.0, 3500.0}) {
    std::vector<pb::Probe> trail;
    const double estimate = pb::staircase(
        spec,
        [&](std::size_t rung, std::size_t) {
          pb::RungResult r = synthetic(rates[rung], capacity);
          r.offered_rps = rates[rung];
          return r;
        },
        &trail);
    std::size_t highest = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (pb::rung_passes(synthetic(rates[i], capacity), spec)) highest = i;
    }
    CHECK(trail.size() == 10 && trail.front().rung == 8);
    CHECK(estimate >= rates[highest] && estimate <= rates[highest + 1]);
    // The same inputs give the same probes.
    std::vector<pb::Probe> again;
    CHECK(near(estimate, pb::staircase(
                             spec,
                             [&](std::size_t rung, std::size_t) {
                               pb::RungResult r = synthetic(rates[rung], capacity);
                               r.offered_rps = rates[rung];
                               return r;
                             },
                             &again)));
  }
  // Each disqualifier on its own fails a rung.
  pb::RungResult ok = synthetic(1000.0, 1e6);
  CHECK(pb::rung_passes(ok, spec));
  pb::RungResult late = ok;
  late.stats.late_p95_ms = 3.0;
  CHECK(!pb::rung_passes(late, spec));
  pb::RungResult backlog = ok;
  backlog.stats.backlog_grew = true;
  CHECK(!pb::rung_passes(backlog, spec));
  pb::RungResult slow = ok;
  slow.stats.p95_ms = 10.5;
  CHECK(!pb::rung_passes(slow, spec));
}

void test_backlog() {
  std::vector<double> flat(400, 2.0), growing;
  for (int i = 0; i < 400; ++i) growing.push_back(1.0 + 0.1 * i);
  CHECK(!pb::backlog_grew(flat, 5.0));
  CHECK(pb::backlog_grew(growing, 5.0));
}

void test_windowed_quantile() {
  // 1600 requests due every 10 ms. In the first half the host was busy
  // (latency 5 ms); in the second latency reads 1.00-1.99 ms.
  pb::OpenLoopRun run;
  for (int k = 0; k < 1600; ++k) {
    pb::Sample s;
    s.answered = true;
    s.scheduled_s = k * 0.01;
    s.latency_ms = k < 800 ? 5.0 : 1.0 + (k % 100) * 0.01;
    run.samples.push_back(s);
  }
  const auto latency = [&](std::size_t k) { return run.samples[k].latency_ms; };
  // Per-window medians: half 1.495, half 5; lower quartile 1.495.
  CHECK(near(pb::windowed_quantile(run, latency, 0.5, 0.25), 1.495));
  CHECK(near(pb::windowed_quantile(run, latency, 0.5, 0.75), 5.0));
  // A steady host: the plain quantile.
  for (pb::Sample& s : run.samples) s.latency_ms = 2.0;
  CHECK(near(pb::windowed_quantile(run, latency, 0.95, 0.25), 2.0));
  // Too few values per window: the quantile over all of them.
  const auto sparse = [&](std::size_t k) {
    return k % 50 == 0 ? run.samples[k].latency_ms : std::nan("");
  };
  CHECK(near(pb::windowed_quantile(run, sparse, 0.5, 0.25), 2.0));
}

void test_punctual_quantile() {
  // 2400 requests due every 10 ms after a 2 s warm-up (200 more before it,
  // sent on time but answered in 50 ms: kept if the warm-up were timed).
  // Each window holds 100 requests. Windows 0-11 were disturbed: the
  // generator ran 3 ms late, latency 5 ms. It ran 0.1 ms late in windows
  // 12-17 and 0.15 ms late in 18-23. Latency reads 0.5 ms in window 12,
  // 1.00-1.99 ms in 13-17 and 3 ms in 18-23.
  pb::OpenLoopRun run;
  for (int k = 0; k < 2600; ++k) {
    pb::Sample s;
    s.answered = true;
    s.scheduled_s = k * 0.01;
    const int w = (k - 200) / 100;
    s.late_ms = k < 200 ? 0.0 : w < 12 ? 3.0 : w < 18 ? 0.1 : 0.15;
    s.latency_ms = k < 200   ? 50.0
                   : w < 12  ? 5.0
                   : w == 12 ? 0.5
                   : w < 18  ? 1.0 + (k % 100) * 0.01
                             : 3.0;
    run.samples.push_back(s);
  }
  // Windows 12-23 are within twice the best lateness: medians 0.5, five of
  // 1.495 and six of 3, whose median is (1.495 + 3) / 2.
  const auto latency = [&](std::size_t k) { return run.samples[k].latency_ms; };
  CHECK(near(pb::punctual_quantile(run, latency, 0.5, 2.0), 2.2475));
  // The disturbed windows are never read, however fast they look.
  for (pb::Sample& s : run.samples) {
    if (s.late_ms == 3.0) s.latency_ms = 0.2;
  }
  CHECK(near(pb::punctual_quantile(run, latency, 0.5, 2.0), 2.2475));
  // When only window 12 is that punctual, the most punctual quarter is
  // kept: windows 12-17, median 1.495.
  for (std::size_t k = 1400; k < 1500; ++k) run.samples[k].late_ms = 0.01;
  CHECK(near(pb::punctual_quantile(run, latency, 0.5, 2.0), 1.495));
  // A steady host: the plain quantile.
  for (pb::Sample& s : run.samples) s.latency_ms = 2.0;
  CHECK(near(pb::punctual_quantile(run, latency, 0.95, 2.0), 2.0));
  // Too few values per window: the quantile over all of them.
  const auto sparse = [&](std::size_t k) {
    return k % 50 == 0 ? run.samples[k].latency_ms : std::nan("");
  };
  CHECK(near(pb::punctual_quantile(run, sparse, 0.5, 2.0), 2.0));
}

void test_generators() {
  pb::Rng x(7), y(7);
  CHECK(pb::random_letters(x, pb::kDnaLetters, 100) ==
        pb::random_letters(y, pb::kDnaLetters, 100));
  CHECK(pb::stream_seed(1, 2, 3) == pb::stream_seed(1, 2, 3));
  CHECK(pb::stream_seed(1, 2, 3) != pb::stream_seed(1, 2, 4));
  CHECK(pb::stream_seed(1, 2, 3) != pb::stream_seed(1, 3, 3));
  pb::Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t v = pb::log_uniform(r, 100, 1000);
    CHECK(v >= 100 && v <= 1000);
  }
  const std::string parent = pb::random_letters(r, pb::kProteinLetters, 5000);
  const std::string child =
      pb::mutate(r, parent, pb::kProteinLetters, pb::Mutation{});
  CHECK(child != parent);
  CHECK(child.size() > 4500 && child.size() < 5500);
}

void test_cigar_rescore() {
  const flsa::ScoringScheme linear(flsa::scoring::mdm78(), -10);
  const flsa::ScoringScheme affine(flsa::scoring::mdm78(), -10, -2);
  const flsa::Alphabet& protein = flsa::Alphabet::protein();
  const flsa::Sequence a(protein, "ARND"), b(protein, "ARQND");
  const auto sub = [&](char x, char y) {
    return std::int64_t{linear.substitution(protein.code(x), protein.code(y))};
  };
  const std::int64_t pairs = sub('A', 'A') + sub('R', 'R') + sub('N', 'N') +
                             sub('D', 'D');
  CHECK(pb::score_cigar("2=1I2=", a, b, linear) == pairs - 10);
  CHECK(pb::score_cigar("2=1I2=", a, b, affine) == pairs - 12);
  CHECK(pb::score_gapped("AR-ND", "ARQND", affine) == pairs - 12);
  // Wrong lengths, a mislabelled column and junk are all rejected.
  CHECK(!pb::score_cigar("2=1I1=", a, b, linear));
  CHECK(!pb::score_cigar("3=1I1=", a, b, linear));
  CHECK(!pb::score_cigar("2=1I2", a, b, linear));
  CHECK(!pb::score_cigar("2=1Z2=", a, b, linear));
  // A two-residue gap opens once under affine scoring; I then D opens twice.
  const flsa::Sequence c(protein, "AD"), d(protein, "ARND");
  CHECK(pb::score_cigar("1=2I1=", c, d, affine) ==
        sub('A', 'A') + sub('D', 'D') - 10 - 4);
  const flsa::Sequence e(protein, "AR"), f(protein, "AN");
  CHECK(pb::score_cigar("1=1I1D", e, f, affine) == sub('A', 'A') - 24);
}

}  // namespace

int main() {
  test_quantiles();
  test_poisson_schedule();
  test_ladder();
  test_backlog();
  test_windowed_quantile();
  test_punctual_quantile();
  test_generators();
  test_cigar_rescore();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
