#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace pb {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Lemire's multiply-shift; the tiny bias is irrelevant for input
  // generation and keeps the mapping trivially reproducible.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  mix.next();
  Rng second(mix.next() ^ (index * 0x8CB92BA72F3D8DD7ULL));
  return second.next();
}

std::string random_letters(Rng& rng, std::string_view letters,
                           std::size_t length) {
  std::string out(length, ' ');
  for (char& c : out) c = letters[rng.below(letters.size())];
  return out;
}

std::string mutate(Rng& rng, std::string_view parent,
                   std::string_view letters, const Mutation& model) {
  std::string out;
  out.reserve(parent.size() + parent.size() / 8);
  std::size_t i = 0;
  while (i < parent.size()) {
    const double u = rng.uniform();
    if (u < model.insertion) {
      do {
        out.push_back(letters[rng.below(letters.size())]);
      } while (rng.uniform() < model.extension);
      out.push_back(parent[i++]);
    } else if (u < model.insertion + model.deletion) {
      do {
        ++i;
      } while (i < parent.size() && rng.uniform() < model.extension);
    } else if (u < model.insertion + model.deletion + model.substitution) {
      char c = parent[i];
      while (c == parent[i]) c = letters[rng.below(letters.size())];
      out.push_back(c);
      ++i;
    } else {
      out.push_back(parent[i++]);
    }
  }
  if (out.empty()) out.push_back(letters[0]);
  return out;
}

std::size_t log_uniform(Rng& rng, std::size_t lo, std::size_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi) + 1.0);
  const auto v = static_cast<std::size_t>(std::exp(l + (h - l) * rng.uniform()));
  return std::clamp(v, lo, hi);
}

double quantile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  p = std::clamp(p, 0.0, 1.0);
  const double h = p * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (h - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

double windowed_quantile(const std::vector<TimedValue>& samples, double p,
                         double across, std::size_t windows) {
  double end = 0.0;
  for (const TimedValue& s : samples) end = std::max(end, s.at_s);
  std::vector<std::vector<double>> bins(windows);
  std::vector<double> all;
  for (const TimedValue& s : samples) {
    const auto w = static_cast<std::size_t>(
        end > 0.0 ? s.at_s / end * static_cast<double>(windows) : 0.0);
    bins[std::min(w, windows - 1)].push_back(s.value);
    all.push_back(s.value);
  }
  std::vector<double> per_window;
  for (std::vector<double>& bin : bins) {
    if (bin.size() >= kMinWindowSamples) {
      per_window.push_back(quantile(std::move(bin), p));
    }
  }
  return per_window.empty() ? quantile(std::move(all), p)
                            : quantile(std::move(per_window), across);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

SpanLog::Id SpanLog::record(std::string_view name, Clock::time_point start,
                            Clock::time_point end, Id parent,
                            std::uint64_t request, std::uint32_t lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::string(name), start, end, parent, request, lane});
  return spans_.size();
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent - 1] += seconds_between(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self =
        seconds_between(spans_[i].start, spans_[i].end) - child[i];
    out[spans_[i].name] += std::max(0.0, self);
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
        << ", \"ts\": "
        << std::chrono::duration<double, std::micro>(s.start - origin_).count()
        << ", \"dur\": "
        << std::chrono::duration<double, std::micro>(s.end - s.start).count()
        << ", \"args\": {\"id\": " << (i + 1) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string output_dir() {
  const char* dir = std::getenv("CARGO_TARGET_DIR");
  return dir != nullptr && *dir != '\0' ? dir : ".bench_build";
}

}  // namespace pb
