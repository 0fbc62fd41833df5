// Correctness gate: every answer the benchmark timed is checked afterwards,
// untimed, against the library's in-process entry points, and returned
// CIGARs are re-scored independently of the aligner that produced them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "scoring/scheme.hpp"
#include "search/chain.hpp"
#include "sequence/sequence.hpp"
#include "service/protocol.hpp"

namespace pb {

const flsa::Alphabet& alphabet_for(flsa::service::WireMatrix matrix);
const flsa::SubstitutionMatrix& matrix_for(flsa::service::WireMatrix matrix);
flsa::ScoringScheme scheme_for(const flsa::service::AlignRequest& request);

/// Score of the alignment a CIGAR describes ('=' match, 'X' mismatch,
/// 'I' gap in a, 'D' gap in b; a gap run costs open + length * extend).
/// Empty when the CIGAR does not spell an alignment of exactly a and b,
/// or labels a match as 'X' or a mismatch as '='.
std::optional<std::int64_t> score_cigar(std::string_view cigar,
                                        const flsa::Sequence& a,
                                        const flsa::Sequence& b,
                                        const flsa::ScoringScheme& scheme);

/// The same for the two gapped rows of an in-process Alignment.
std::optional<std::int64_t> score_gapped(std::string_view gapped_a,
                                         std::string_view gapped_b,
                                         const flsa::ScoringScheme& scheme);

/// Optimal score from the in-process oracle: fastlsa_score for linear
/// gaps, the full-matrix align() for affine ones.
std::int64_t oracle_score(const flsa::service::AlignRequest& request);

/// Checks an ALIGN answer against the oracle score and, when it carries a
/// CIGAR and `rescore` is set, re-scores the CIGAR. Empty when correct,
/// else a description of the mismatch.
std::string check_align(const flsa::service::AlignRequest& request,
                        const flsa::service::Response& response,
                        bool rescore);

/// Checks a SEARCH answer hit by hit against an in-process chained_search
/// on an identically built index.
std::string check_search(const flsa::service::SearchRequest& request,
                         const flsa::service::Response& response,
                         const flsa::search::ReferenceIndex& index,
                         const flsa::search::ChainedSearchParams& params);

/// Runs fn(i) for every i in [0, n) on `threads` threads (untimed
/// verification work only).
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace pb
