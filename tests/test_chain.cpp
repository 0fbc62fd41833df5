// Tests for the colinear chainer and the chained (seed-chain-extend)
// search pipeline: anchor collection/merging, sweep-line chaining edge
// cases, and end-to-end hits validated against full Smith-Waterman.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dp/local.hpp"
#include "scoring/builtin.hpp"
#include "search/chain.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

ScoringScheme scheme() {
  static const SubstitutionMatrix m = scoring::dna(5, -4);
  return ScoringScheme(m, -6);
}

search::Anchor make_anchor(std::size_t q_begin, std::size_t s_begin,
                           std::size_t length, Score score) {
  search::Anchor a;
  a.q_begin = q_begin;
  a.q_end = q_begin + length;
  a.s_begin = s_begin;
  a.s_end = s_begin + length;
  a.score = score;
  return a;
}

TEST(CollectAnchors, MergesAdjacentSeedsIntoOneMaximalRun) {
  Xoshiro256 rng(301);
  const Sequence gene = random_sequence(Alphabet::dna(), 60, rng);
  const Sequence subject(
      Alphabet::dna(),
      random_sequence(Alphabet::dna(), 300, rng).to_string() +
          gene.to_string() +
          random_sequence(Alphabet::dna(), 200, rng).to_string());
  const search::ReferenceIndex index(subject, 8);
  const auto anchors = search::collect_anchors(gene, index, scheme());
  // The exact 60-residue copy yields 53 overlapping 8-mers on one
  // diagonal; merging must collapse them into a single maximal anchor.
  const auto planted = std::find_if(
      anchors.begin(), anchors.end(), [](const search::Anchor& a) {
        return a.q_begin == 0 && a.length() == 60;
      });
  ASSERT_NE(planted, anchors.end());
  EXPECT_EQ(planted->s_begin, 300u);
  EXPECT_EQ(planted->s_end, 360u);
  EXPECT_EQ(planted->score, 60 * 5);  // exact run scored on the diagonal
  // Output order contract: sorted by q_begin.
  EXPECT_TRUE(std::is_sorted(anchors.begin(), anchors.end(),
                             [](const auto& x, const auto& y) {
                               return x.q_begin < y.q_begin;
                             }));
}

TEST(CollectAnchors, RepeatMaskDropsHighFrequencyKmers) {
  // A subject that is one 8-mer repeated: every query k-mer occurs far
  // more often than the mask allows, so no anchors survive.
  std::string repeat;
  for (int i = 0; i < 100; ++i) repeat += "ACGTACGT";
  const Sequence subject(Alphabet::dna(), repeat);
  const Sequence query(Alphabet::dna(), "ACGTACGTACGTACGT");
  const search::ReferenceIndex index(subject, 8);
  EXPECT_TRUE(search::collect_anchors(query, index, scheme(),
                                      /*max_positions_per_kmer=*/4)
                  .empty());
  EXPECT_FALSE(search::collect_anchors(query, index, scheme(),
                                       /*max_positions_per_kmer=*/0)
                   .empty());  // 0 = unlimited
}

TEST(ChainAnchors, EmptyInputYieldsNoChains) {
  EXPECT_TRUE(search::chain_anchors({}, search::ChainParams{}).empty());
}

TEST(ChainAnchors, SingleAnchorAboveFloorIsItsOwnChain) {
  const std::vector<search::Anchor> anchors = {make_anchor(0, 100, 20, 100)};
  search::ChainParams params;
  params.min_chain_score = 30;
  const auto chains = search::chain_anchors(anchors, params);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors, (std::vector<std::size_t>{0}));
  EXPECT_EQ(chains[0].score, 100);
  // Below the floor it is filtered.
  params.min_chain_score = 101;
  EXPECT_TRUE(search::chain_anchors(anchors, params).empty());
}

TEST(ChainAnchors, JoinsColinearAnchorsAndChargesL1GapCost) {
  // Two colinear anchors: query gap 10, subject gap 14.
  const std::vector<search::Anchor> anchors = {
      make_anchor(0, 100, 20, 100), make_anchor(30, 134, 20, 100)};
  search::ChainParams params;
  params.gap_weight = 2;
  params.min_chain_score = 1;
  const auto chains = search::chain_anchors(anchors, params);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(chains[0].score, 100 + 100 - 2 * (10 + 14));
}

TEST(ChainAnchors, CrossingAnchorsAreNotChainedTogether) {
  // Second anchor precedes the first in subject coordinates — chaining
  // them would require the alignment to go backwards. They must surface
  // as two independent chains instead.
  const std::vector<search::Anchor> anchors = {
      make_anchor(0, 500, 20, 100), make_anchor(40, 100, 20, 100)};
  search::ChainParams params;
  params.min_chain_score = 1;
  const auto chains = search::chain_anchors(anchors, params);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0].anchors.size(), 1u);
  EXPECT_EQ(chains[1].anchors.size(), 1u);
}

TEST(ChainAnchors, PicksTheCheaperPredecessorNotTheNearest) {
  // Anchor 2 can chain off anchor 0 (big gap) or anchor 1 (small gap,
  // small score). The sweep must keep both candidates on the frontier
  // and pick the better total.
  const std::vector<search::Anchor> anchors = {
      make_anchor(0, 0, 20, 100),      // strong, gap to #2: 30+30
      make_anchor(25, 1000, 20, 10),   // weak, gap to #2 impossible (s)
      make_anchor(50, 50, 20, 100)};   // chains off #0
  search::ChainParams params;
  params.gap_weight = 1;
  params.min_chain_score = 1;
  const auto chains = search::chain_anchors(anchors, params);
  ASSERT_FALSE(chains.empty());
  EXPECT_EQ(chains[0].anchors, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(chains[0].score, 100 + 100 - (30 + 30));
}

TEST(ChainAnchors, OverlappingAnchorsChainWithinTolerance) {
  // Anchors overlapping by 5 residues in both coordinates: chained when
  // max_overlap >= 5, split when the tolerance is lower.
  const std::vector<search::Anchor> anchors = {
      make_anchor(0, 100, 20, 100), make_anchor(15, 115, 20, 100)};
  search::ChainParams tolerant;
  tolerant.max_overlap = 5;
  tolerant.min_chain_score = 1;
  const auto joined = search::chain_anchors(anchors, tolerant);
  ASSERT_FALSE(joined.empty());
  EXPECT_EQ(joined[0].anchors.size(), 2u);
  search::ChainParams strict;
  strict.max_overlap = 2;
  strict.min_chain_score = 1;
  const auto split = search::chain_anchors(anchors, strict);
  ASSERT_FALSE(split.empty());
  EXPECT_EQ(split[0].anchors.size(), 1u);
}

TEST(ChainAnchors, RejectsAnchorsNotLongerThanTheOverlapTolerance) {
  const std::vector<search::Anchor> anchors = {make_anchor(0, 0, 8, 40)};
  search::ChainParams params;
  params.max_overlap = 8;  // anchor length == tolerance: degenerate
  EXPECT_THROW(search::chain_anchors(anchors, params),
               std::invalid_argument);
}

TEST(ChainedSearch, FindsPlantedGeneThroughSubstitutionsAndIndels) {
  Xoshiro256 rng(302);
  const Sequence gene = random_sequence(Alphabet::dna(), 200, rng);
  MutationModel model;
  model.substitution_rate = 0.05;
  model.insertion_rate = 0.01;
  model.deletion_rate = 0.01;
  const Sequence mutated = mutate(gene, model, rng);
  const Sequence subject(
      Alphabet::dna(),
      random_sequence(Alphabet::dna(), 3000, rng).to_string() +
          mutated.to_string() +
          random_sequence(Alphabet::dna(), 2000, rng).to_string());
  const search::ReferenceIndex index(subject, 12);
  search::ChainedSearchStats stats;
  const auto hits =
      search::chained_search(gene, index, scheme(), {}, &stats);
  ASSERT_FALSE(hits.empty());
  const Alignment& best = hits[0].alignment;
  EXPECT_GE(best.b_end, 3000u);
  EXPECT_LE(best.b_begin, 3000u + mutated.size());
  EXPECT_GT(best.score, 600);
  EXPECT_GT(best.identity(), 0.85);
  // The reported score is self-consistent with the emitted gapped rows.
  EXPECT_EQ(best.score,
            score_alignment(best, scheme(), Alphabet::dna()));
  EXPECT_GT(stats.anchors, 0u);
  EXPECT_GT(stats.chains, 0u);
  EXPECT_GE(stats.filled, stats.chains == 0 ? 0u : 1u);
}

TEST(ChainedSearch, ExactCopyScoresAsFullSmithWaterman) {
  Xoshiro256 rng(303);
  const Sequence gene = random_sequence(Alphabet::dna(), 150, rng);
  const Sequence subject(
      Alphabet::dna(),
      random_sequence(Alphabet::dna(), 1000, rng).to_string() +
          gene.to_string() +
          random_sequence(Alphabet::dna(), 800, rng).to_string());
  const search::ReferenceIndex index(subject, 12);
  const auto hits = search::chained_search(gene, index, scheme());
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].alignment.score,
            local_align_full_matrix(gene, subject, scheme()).score);
  EXPECT_EQ(hits[0].alignment.score, 150 * 5);
}

TEST(ChainedSearch, HitsAreSortedAndDisjointInTheReference) {
  Xoshiro256 rng(304);
  const Sequence motif = random_sequence(Alphabet::dna(), 90, rng);
  MutationModel model;
  model.substitution_rate = 0.06;
  model.insertion_rate = 0.0;
  model.deletion_rate = 0.0;
  std::string subject_text;
  for (int copy = 0; copy < 4; ++copy) {
    subject_text += random_sequence(Alphabet::dna(), 600, rng).to_string();
    subject_text += mutate(motif, model, rng).to_string();
  }
  const Sequence subject(Alphabet::dna(), subject_text);
  const search::ReferenceIndex index(subject, 12);
  const auto hits = search::chained_search(motif, index, scheme());
  ASSERT_GE(hits.size(), 2u);
  for (std::size_t i = 0; i + 1 < hits.size(); ++i) {
    EXPECT_GE(hits[i].alignment.score, hits[i + 1].alignment.score);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    for (std::size_t j = i + 1; j < hits.size(); ++j) {
      const Alignment& a = hits[i].alignment;
      const Alignment& b = hits[j].alignment;
      EXPECT_TRUE(a.b_end <= b.b_begin || b.b_end <= a.b_begin)
          << "hits " << i << " and " << j << " overlap in the reference";
    }
  }
}

TEST(ChainedSearch, MotifAndNearbySuffixCopyYieldDisjointHits) {
  // The subject carries the full motif M and, 20 bp later, a copy of M's
  // suffix, so the query's second half anchors in both places. The suffix
  // chain's flank extension runs toward the full-motif hit; the reported
  // hits must still be disjoint in the reference.
  Xoshiro256 rng(271);
  const Sequence motif = random_sequence(Alphabet::dna(), 120, rng);
  const Sequence suffix = motif.subsequence(60, 60);
  const Sequence subject(
      Alphabet::dna(),
      random_sequence(Alphabet::dna(), 500, rng).to_string() +
          motif.to_string() +
          random_sequence(Alphabet::dna(), 20, rng).to_string() +
          suffix.to_string() +
          random_sequence(Alphabet::dna(), 400, rng).to_string());
  const search::ReferenceIndex index(subject, 8);
  const auto hits = search::chained_search(motif, index, scheme());
  ASSERT_FALSE(hits.empty());
  // The top hit is the planted full motif.
  EXPECT_LE(hits[0].alignment.b_begin, 500u);
  EXPECT_GE(hits[0].alignment.b_end, 620u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    for (std::size_t j = i + 1; j < hits.size(); ++j) {
      const Alignment& a = hits[i].alignment;
      const Alignment& b = hits[j].alignment;
      EXPECT_TRUE(a.b_end <= b.b_begin || b.b_end <= a.b_begin)
          << "hits " << i << " [" << a.b_begin << "," << a.b_end
          << ") and " << j << " [" << b.b_begin << "," << b.b_end
          << ") overlap in the reference";
    }
  }
}

TEST(ChainedSearch, PropertyScoresAreSelfConsistentAndBoundedBySw) {
  // Fixed-seed property sweep: chained hits never beat the Smith-
  // Waterman optimum (they are local alignments of the same pair) and
  // always reproduce their own score from the emitted gapped rows.
  Xoshiro256 rng(305);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const Sequence gene =
        random_sequence(Alphabet::dna(), 80 + 10 * trial, rng);
    MutationModel model;
    model.substitution_rate = 0.04 + 0.01 * static_cast<double>(trial % 3);
    const Sequence mutated = mutate(gene, model, rng);
    const Sequence subject(
        Alphabet::dna(),
        random_sequence(Alphabet::dna(), 700, rng).to_string() +
            mutated.to_string() +
            random_sequence(Alphabet::dna(), 500, rng).to_string());
    const search::ReferenceIndex index(subject, 10);
    const auto hits = search::chained_search(gene, index, scheme());
    const Score optimum =
        local_align_full_matrix(gene, subject, scheme()).score;
    for (const auto& hit : hits) {
      EXPECT_LE(hit.alignment.score, optimum) << "trial " << trial;
      EXPECT_EQ(hit.alignment.score,
                score_alignment(hit.alignment, scheme(), Alphabet::dna()))
          << "trial " << trial;
    }
    if (!hits.empty()) {
      // The planted copy dominates: the top chained hit recovers at
      // least 90% of the unrestricted optimum.
      EXPECT_GE(hits[0].alignment.score, (optimum * 9) / 10)
          << "trial " << trial;
    }
  }
}

TEST(ChainedSearch, NoHitsInUnrelatedSequences) {
  Xoshiro256 rng(306);
  const Sequence query = random_sequence(Alphabet::dna(), 100, rng);
  const Sequence subject = random_sequence(Alphabet::dna(), 5000, rng);
  const search::ReferenceIndex index(subject, 13);  // chance match ~0
  EXPECT_TRUE(search::chained_search(query, index, scheme()).empty());
}

TEST(ChainedSearch, Validation) {
  const Sequence q(Alphabet::dna(), "ACGTACGTACGTACGT");
  const search::ReferenceIndex index(q, 8);
  const SubstitutionMatrix m = scoring::dna();
  const ScoringScheme affine(m, -5, -1);
  EXPECT_THROW(search::chained_search(q, index, affine),
               std::invalid_argument);
  const Sequence protein(Alphabet::protein(), "ACDEFGHIKL");
  EXPECT_THROW(search::chained_search(protein, index, scheme()),
               std::invalid_argument);  // alphabet mismatch
}

TEST(ReferenceIndex, SharesSubjectOwnershipWithCallers) {
  std::shared_ptr<const search::ReferenceIndex> index;
  {
    auto subject = std::make_shared<const Sequence>(Alphabet::dna(),
                                                    "ACGTACGTAACGTTTT");
    index = std::make_shared<const search::ReferenceIndex>(subject, 4);
  }  // the caller's handle is gone; the index keeps the subject alive
  EXPECT_EQ(index->size(), 16u);
  EXPECT_EQ(index->subject().to_string(), "ACGTACGTAACGTTTT");
  const Sequence probe(Alphabet::dna(), "ACGT");
  EXPECT_FALSE(index->kmers().lookup(probe.residues()).empty());
}

}  // namespace
}  // namespace flsa
