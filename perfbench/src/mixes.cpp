// Request mixes shared by the workloads and the traced run.
#include <functional>
#include <mutex>
#include <unordered_set>

#include "oracle.hpp"
#include "workloads.hpp"

namespace pb {

namespace svc = flsa::service;

svc::AlignRequest serve_request(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t index) {
  Rng rng(stream_seed(seed, stream, index));
  svc::AlignRequest request;
  const double kind = rng.uniform();
  std::string_view letters = kProteinLetters;
  request.matrix = svc::WireMatrix::kMdm78;
  request.gap_open = 0;
  request.gap_extend = -10;
  if (kind >= 0.70 && kind < 0.85) {
    request.gap_open = -10;
    request.gap_extend = -2;
  } else if (kind >= 0.85) {
    request.matrix = svc::WireMatrix::kDna;
    letters = kDnaLetters;
  }
  request.a = random_letters(rng, letters, log_uniform(rng, 100, 1000));
  request.b = mutate(rng, request.a, letters, Mutation{});
  request.score_only = rng.uniform() < 0.25;
  return request;
}

double request_cells(const Request& request) {
  if (const auto* align = std::get_if<svc::AlignRequest>(&request)) {
    return static_cast<double>(align->a.size()) *
           static_cast<double>(align->b.size());
  }
  return 0.0;
}

namespace {

std::uint64_t content_hash(const Request& request) {
  std::string key;
  if (const auto* align = std::get_if<svc::AlignRequest>(&request)) {
    key.append("A")
        .append(std::to_string(static_cast<int>(align->matrix)))
        .append(":")
        .append(std::to_string(align->gap_open))
        .append(":")
        .append(std::to_string(align->gap_extend))
        .append(":")
        .append(align->a)
        .append(":")
        .append(align->b);
  } else {
    const auto& search = std::get<svc::SearchRequest>(request);
    key.append("S")
        .append(std::to_string(search.ref_id))
        .append(":")
        .append(search.query);
  }
  return std::hash<std::string>{}(key);
}

}  // namespace

double repeat_share(const std::vector<const std::vector<Request>*>& phases) {
  std::unordered_set<std::uint64_t> seen;
  std::size_t total = 0, repeats = 0;
  for (const std::vector<Request>* phase : phases) {
    for (const Request& request : *phase) {
      ++total;
      if (!seen.insert(content_hash(request)).second) ++repeats;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(repeats) / static_cast<double>(total);
}

std::vector<std::string> verify_aligns(const std::vector<Request>& requests,
                                       const OpenLoopRun& run,
                                       unsigned threads) {
  std::mutex mutex;
  std::vector<std::string> errors;
  parallel_for(run.samples.size(), threads, [&](std::size_t k) {
    const auto* request = std::get_if<svc::AlignRequest>(&requests[k]);
    if (request == nullptr || failed(run.samples[k])) return;
    std::string error;
    try {
      error = check_align(*request, run.samples[k].response, true);
    } catch (const std::exception& e) {
      error = std::string("oracle threw: ") + e.what();
    }
    if (error.empty()) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (errors.size() < 5) {
      errors.push_back("request " + std::to_string(k) + ": " + error);
    } else if (errors.size() == 5) {
      errors.push_back("...");
    }
  });
  return errors;
}

}  // namespace pb
