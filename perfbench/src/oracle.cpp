#include "oracle.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/aligner.hpp"
#include "core/fastlsa.hpp"
#include "scoring/builtin.hpp"

namespace pb {

namespace svc = flsa::service;

const flsa::Alphabet& alphabet_for(svc::WireMatrix matrix) {
  switch (matrix) {
    case svc::WireMatrix::kDna: return flsa::Alphabet::dna();
    case svc::WireMatrix::kDnaN: return flsa::Alphabet::dna_n();
    default: return flsa::Alphabet::protein();
  }
}

const flsa::SubstitutionMatrix& matrix_for(svc::WireMatrix matrix) {
  static const flsa::SubstitutionMatrix dna = flsa::scoring::dna();
  static const flsa::SubstitutionMatrix dna_n = flsa::scoring::dna_n();
  switch (matrix) {
    case svc::WireMatrix::kMdm78: return flsa::scoring::mdm78();
    case svc::WireMatrix::kPam250: return flsa::scoring::pam250();
    case svc::WireMatrix::kBlosum62: return flsa::scoring::blosum62();
    case svc::WireMatrix::kDna: return dna;
    case svc::WireMatrix::kDnaN: return dna_n;
  }
  return flsa::scoring::mdm78();
}

flsa::ScoringScheme scheme_for(const svc::AlignRequest& request) {
  const flsa::SubstitutionMatrix& matrix = matrix_for(request.matrix);
  return request.gap_open == 0
             ? flsa::ScoringScheme(matrix, request.gap_extend)
             : flsa::ScoringScheme(matrix, request.gap_open,
                                   request.gap_extend);
}

namespace {

/// Column-by-column scorer shared by the CIGAR and gapped-row checks.
class ColumnScorer {
 public:
  explicit ColumnScorer(const flsa::ScoringScheme& scheme) : scheme_(scheme) {}

  void pair(flsa::Residue x, flsa::Residue y) {
    score_ += scheme_.substitution(x, y);
    gap_ = 0;
  }
  /// side 1: gap in a; side 2: gap in b.
  void gap(int side) {
    if (gap_ != side) score_ += scheme_.gap_open();
    score_ += scheme_.gap_extend();
    gap_ = side;
  }
  std::int64_t score() const { return score_; }

 private:
  const flsa::ScoringScheme& scheme_;
  std::int64_t score_ = 0;
  int gap_ = 0;
};

}  // namespace

std::optional<std::int64_t> score_cigar(std::string_view cigar,
                                        const flsa::Sequence& a,
                                        const flsa::Sequence& b,
                                        const flsa::ScoringScheme& scheme) {
  ColumnScorer scorer(scheme);
  std::size_t i = 0, j = 0, run = 0;
  bool have_digits = false;
  for (char c : cigar) {
    if (c >= '0' && c <= '9') {
      run = run * 10 + static_cast<std::size_t>(c - '0');
      have_digits = true;
      continue;
    }
    if (!have_digits || run == 0) return std::nullopt;
    for (std::size_t r = 0; r < run; ++r) {
      switch (c) {
        case '=':
        case 'X':
          if (i >= a.size() || j >= b.size()) return std::nullopt;
          if ((a[i] == b[j]) != (c == '=')) return std::nullopt;
          scorer.pair(a[i++], b[j++]);
          break;
        case 'I':
          if (j >= b.size()) return std::nullopt;
          scorer.gap(1);
          ++j;
          break;
        case 'D':
          if (i >= a.size()) return std::nullopt;
          scorer.gap(2);
          ++i;
          break;
        default:
          return std::nullopt;
      }
    }
    run = 0;
    have_digits = false;
  }
  if (have_digits || i != a.size() || j != b.size()) return std::nullopt;
  return scorer.score();
}

std::optional<std::int64_t> score_gapped(std::string_view gapped_a,
                                         std::string_view gapped_b,
                                         const flsa::ScoringScheme& scheme) {
  if (gapped_a.size() != gapped_b.size()) return std::nullopt;
  const flsa::Alphabet& alphabet = scheme.alphabet();
  ColumnScorer scorer(scheme);
  for (std::size_t k = 0; k < gapped_a.size(); ++k) {
    const char x = gapped_a[k], y = gapped_b[k];
    if (x == '-' && y == '-') return std::nullopt;
    if (x == '-') {
      scorer.gap(1);
    } else if (y == '-') {
      scorer.gap(2);
    } else {
      if (!alphabet.contains(x) || !alphabet.contains(y)) return std::nullopt;
      scorer.pair(alphabet.code(x), alphabet.code(y));
    }
  }
  return scorer.score();
}

std::int64_t oracle_score(const svc::AlignRequest& request) {
  const flsa::Alphabet& alphabet = alphabet_for(request.matrix);
  const flsa::Sequence a(alphabet, request.a);
  const flsa::Sequence b(alphabet, request.b);
  const flsa::ScoringScheme scheme = scheme_for(request);
  if (scheme.is_linear()) return flsa::fastlsa_score(a, b, scheme);
  return flsa::align(a, b, scheme).score;
}

std::string check_align(const svc::AlignRequest& request,
                        const svc::Response& response, bool rescore) {
  const auto* ok = std::get_if<svc::AlignResponse>(&response);
  if (ok == nullptr) return "ALIGN was not answered with ALIGN_OK";
  const std::int64_t expected = oracle_score(request);
  if (ok->score != expected) {
    return "ALIGN score " + std::to_string(ok->score) + ", oracle " +
           std::to_string(expected);
  }
  if (request.score_only != ok->cigar.empty()) {
    return "CIGAR presence does not match score_only";
  }
  if (rescore && !ok->cigar.empty()) {
    const flsa::Alphabet& alphabet = alphabet_for(request.matrix);
    const flsa::Sequence a(alphabet, request.a);
    const flsa::Sequence b(alphabet, request.b);
    const std::optional<std::int64_t> rescored =
        score_cigar(ok->cigar, a, b, scheme_for(request));
    if (!rescored) return "CIGAR does not spell an alignment of the pair";
    if (*rescored != expected) {
      return "CIGAR re-scores to " + std::to_string(*rescored) + ", oracle " +
             std::to_string(expected);
    }
  }
  return "";
}

std::string check_search(const svc::SearchRequest& request,
                         const svc::Response& response,
                         const flsa::search::ReferenceIndex& index,
                         const flsa::search::ChainedSearchParams& params) {
  const auto* ok = std::get_if<svc::SearchResponse>(&response);
  if (ok == nullptr) return "SEARCH was not answered with SEARCH_OK";
  const flsa::Sequence query(alphabet_for(request.matrix), request.query);
  const flsa::ScoringScheme scheme(matrix_for(request.matrix),
                                   request.gap_extend);
  const std::vector<flsa::search::SearchHit> hits =
      flsa::search::chained_search(query, index, scheme, params);
  if (hits.size() != ok->hits.size()) {
    return "SEARCH returned " + std::to_string(ok->hits.size()) +
           " hits, in-process search " + std::to_string(hits.size());
  }
  for (std::size_t h = 0; h < hits.size(); ++h) {
    const flsa::Alignment& want = hits[h].alignment;
    const svc::WireHit& got = ok->hits[h];
    if (got.score != want.score || got.q_begin != want.a_begin ||
        got.q_end != want.a_end || got.s_begin != want.b_begin ||
        got.s_end != want.b_end ||
        (!request.score_only && got.cigar != want.cigar())) {
      return "SEARCH hit " + std::to_string(h) +
             " differs from the in-process search";
    }
  }
  return "";
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace pb
