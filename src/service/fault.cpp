#include "service/fault.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace flsa {
namespace service {

namespace {

constexpr std::uint32_t kMaxDelayMs = 60000;

double parse_probability(const std::string& key, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("fault-plan: bad number for '" + key +
                                "': " + text);
  }
  if (used != text.size() || value < 0.0 || value > 1.0) {
    throw std::invalid_argument("fault-plan: '" + key +
                                "' needs a probability in [0, 1], got " +
                                text);
  }
  return value;
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("fault-plan: bad number for '" + key +
                                "': " + text);
  }
  if (used != text.size()) {
    throw std::invalid_argument("fault-plan: bad number for '" + key +
                                "': " + text);
  }
  return value;
}

/// splitmix64: tiny, seedable, and plenty for fault scheduling.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

obs::Counter& fault_counter(const char* kind) {
  return obs::metrics().counter(std::string("service.fault.") + kind);
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "off") return plan;
  std::stringstream stream{std::string(spec)};
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw std::invalid_argument(
          "fault-plan: expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else if (key == "reject") {
      plan.reject = parse_probability(key, value);
    } else if (key == "drop") {
      plan.drop = parse_probability(key, value);
    } else if (key == "delay") {
      // delay=P or delay=P:MS
      const std::size_t colon = value.find(':');
      plan.delay = parse_probability(key, value.substr(0, colon));
      if (colon != std::string::npos) {
        const std::uint64_t ms = parse_u64("delay ms", value.substr(colon + 1));
        if (ms > kMaxDelayMs) {
          throw std::invalid_argument(
              "fault-plan: delay of " + std::to_string(ms) +
              " ms exceeds the cap of " + std::to_string(kMaxDelayMs));
        }
        plan.delay_ms = static_cast<std::uint32_t>(ms);
      }
    } else if (key == "truncate") {
      plan.truncate = parse_probability(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_probability(key, value);
    } else {
      throw std::invalid_argument("fault-plan: unknown key '" + key + "'");
    }
  }
  return plan;
}

std::string to_string(const FaultPlan& plan) {
  if (!plan.enabled()) return "off";
  std::ostringstream out;
  out << "seed=" << plan.seed;
  if (plan.reject > 0.0) out << ",reject=" << plan.reject;
  if (plan.drop > 0.0) out << ",drop=" << plan.drop;
  if (plan.delay > 0.0) {
    out << ",delay=" << plan.delay << ":" << plan.delay_ms;
  }
  if (plan.truncate > 0.0) out << ",truncate=" << plan.truncate;
  if (plan.corrupt > 0.0) out << ",corrupt=" << plan.corrupt;
  return out.str();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), state_(plan.seed) {}

std::uint64_t FaultInjector::next_u64() {
  std::lock_guard<std::mutex> lock(mutex_);
  return splitmix64(state_);
}

double FaultInjector::uniform() {
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void FaultInjector::stall() {
  std::unique_lock<std::mutex> lock(stall_mutex_);
  stall_cv_.wait_for(lock, std::chrono::milliseconds(plan_.delay_ms),
                     [this] { return interrupted_; });
}

void FaultInjector::interrupt() {
  {
    std::lock_guard<std::mutex> lock(stall_mutex_);
    interrupted_ = true;
  }
  stall_cv_.notify_all();
}

void FaultInjector::resume() {
  std::lock_guard<std::mutex> lock(stall_mutex_);
  interrupted_ = false;
}

bool FaultInjector::inject_reject() {
  if (plan_.reject <= 0.0) return false;
  if (uniform() >= plan_.reject) return false;
  fault_counter("reject").add();
  return true;
}

ReadFault FaultInjector::inject_read() {
  if (plan_.delay > 0.0 && uniform() < plan_.delay) {
    fault_counter("delay").add();
    stall();
  }
  if (plan_.drop > 0.0 && uniform() < plan_.drop) {
    fault_counter("drop").add();
    return ReadFault::kDrop;
  }
  return ReadFault::kNone;
}

WriteFault FaultInjector::inject_write() {
  if (plan_.delay > 0.0 && uniform() < plan_.delay) {
    fault_counter("delay").add();
    stall();
  }
  if (plan_.drop > 0.0 && uniform() < plan_.drop) {
    fault_counter("drop").add();
    return WriteFault::kDrop;
  }
  if (plan_.truncate > 0.0 && uniform() < plan_.truncate) {
    fault_counter("truncate").add();
    return WriteFault::kTruncate;
  }
  if (plan_.corrupt > 0.0 && uniform() < plan_.corrupt) {
    fault_counter("corrupt").add();
    return WriteFault::kCorrupt;
  }
  return WriteFault::kNone;
}

std::size_t FaultInjector::truncate_point(std::size_t frame_size) {
  if (frame_size == 0) return 0;
  return static_cast<std::size_t>(next_u64() % frame_size);
}

void FaultInjector::corrupt(std::string& payload) {
  if (payload.empty()) return;
  payload[0] = static_cast<char>(
      static_cast<unsigned char>(payload[0]) ^ 0xA5u);
}

}  // namespace service
}  // namespace flsa
