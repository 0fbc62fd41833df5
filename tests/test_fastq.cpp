// Tests for FASTQ I/O and the MSA consensus utilities.
#include <gtest/gtest.h>

#include <sstream>

#include "dp/kernel.hpp"
#include "msa/center_star.hpp"
#include "scoring/builtin.hpp"
#include "sequence/fastq.hpp"
#include "sequence/generate.hpp"

namespace flsa {
namespace {

TEST(Fastq, ParsesRecords) {
  std::istringstream in(
      "@read1 first\nACGT\n+\nIIII\n@read2\nTTGG\n+anything\n!!II\n");
  const auto records = read_fastq(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence.id(), "read1");
  EXPECT_EQ(records[0].sequence.description(), "first");
  EXPECT_EQ(records[0].sequence.to_string(), "ACGT");
  EXPECT_EQ(records[0].quality, "IIII");
  EXPECT_EQ(records[0].phred(0), 'I' - 33);
  EXPECT_DOUBLE_EQ(records[0].mean_phred(), 'I' - 33);
  EXPECT_EQ(records[1].phred(0), 0);  // '!' = Phred 0
  EXPECT_NEAR(records[1].mean_phred(), (0 + 0 + 40 + 40) / 4.0, 1e-12);
}

TEST(Fastq, RoundTripsThroughWriter) {
  Xoshiro256 rng(271);
  std::vector<FastqRecord> records;
  for (int i = 0; i < 3; ++i) {
    const Sequence s = random_sequence(
        Alphabet::dna(), 20 + static_cast<std::size_t>(i), rng,
                                       "r" + std::to_string(i));
    std::string quality(s.size(), static_cast<char>(33 + 30 + i));
    records.push_back(FastqRecord{s, std::move(quality)});
  }
  std::ostringstream out;
  write_fastq(out, records);
  std::istringstream in(out.str());
  const auto parsed = read_fastq(in, Alphabet::dna());
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].sequence.to_string(),
              records[i].sequence.to_string());
    EXPECT_EQ(parsed[i].quality, records[i].quality);
  }
}

TEST(Fastq, RejectsStructuralErrors) {
  const Alphabet& dna = Alphabet::dna();
  std::istringstream no_at("ACGT\n+\nIIII\n");
  EXPECT_THROW(read_fastq(no_at, dna), std::invalid_argument);
  std::istringstream no_plus("@r\nACGT\nIIII\nIIII\n");
  EXPECT_THROW(read_fastq(no_plus, dna), std::invalid_argument);
  std::istringstream short_quality("@r\nACGT\n+\nII\n");
  EXPECT_THROW(read_fastq(short_quality, dna), std::invalid_argument);
  std::istringstream truncated("@r\nACGT\n+\n");
  EXPECT_THROW(read_fastq(truncated, dna), std::invalid_argument);
  std::istringstream bad_residue("@r\nACGX\n+\nIIII\n");
  EXPECT_THROW(read_fastq(bad_residue, dna), std::invalid_argument);
  EXPECT_THROW(read_fastq_file("/nonexistent.fastq", dna),
               std::runtime_error);
}

TEST(Fastq, HandlesWindowsLineEndings) {
  std::istringstream in("@r one\r\nACGT\r\n+\r\nIIII\r\n");
  const auto records = read_fastq(in, Alphabet::dna());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence.to_string(), "ACGT");
  EXPECT_EQ(records[0].sequence.description(), "one");
  EXPECT_EQ(records[0].quality, "IIII");
}

TEST(Fastq, OversizedLineThrowsCleanly) {
  ParseLimits limits;
  limits.max_line_bytes = 8;
  std::istringstream in("@r\n" + std::string(32, 'A') + "\n+\n" +
                        std::string(32, 'I') + "\n");
  EXPECT_THROW(read_fastq(in, Alphabet::dna(), limits), std::invalid_argument);
}

TEST(Fastq, OversizedRecordThrowsAndNamesIt) {
  ParseLimits limits;
  limits.max_record_residues = 4;
  std::istringstream in("@big\nACGTACGT\n+\nIIIIIIII\n");
  try {
    read_fastq(in, Alphabet::dna(), limits);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("big"), std::string::npos);
  }
}

TEST(Fastq, TruncatedFinalRecordNamesIt) {
  std::istringstream in("@ok\nACGT\n+\nIIII\n@cut\nACGT\n");
  try {
    read_fastq(in, Alphabet::dna());
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cut"), std::string::npos);
  }
}

TEST(Consensus, MajorityRuleAndGapSkipping) {
  msa::MultipleAlignment aln;
  aln.rows = {"AC-GT", "AC-GA", "ATCGT"};
  EXPECT_EQ(msa::consensus(aln, Alphabet::dna()), "ACGT");
  const auto conservation =
      msa::column_conservation(aln, Alphabet::dna());
  ASSERT_EQ(conservation.size(), 5u);
  EXPECT_NEAR(conservation[0], 1.0, 1e-12);        // AAA
  EXPECT_NEAR(conservation[1], 2.0 / 3.0, 1e-12);  // CCT
  EXPECT_NEAR(conservation[2], 0.0, 1e-12);        // --C: gap majority
  EXPECT_NEAR(conservation[3], 1.0, 1e-12);        // GGG
  EXPECT_NEAR(conservation[4], 2.0 / 3.0, 1e-12);  // TAT
}

TEST(Consensus, RecoversAncestorOfACleanFamily) {
  Xoshiro256 rng(272);
  const Sequence ancestor = random_sequence(Alphabet::dna(), 80, rng);
  MutationModel light;
  light.substitution_rate = 0.05;
  light.insertion_rate = 0.005;
  light.deletion_rate = 0.005;
  std::vector<Sequence> family;
  for (int i = 0; i < 7; ++i) {
    family.push_back(mutate(ancestor, light, rng));
  }
  const SubstitutionMatrix m = scoring::dna(5, -4);
  const ScoringScheme scheme(m, -6);
  const msa::MultipleAlignment aln =
      msa::center_star_align(family, scheme);
  const Sequence cons(Alphabet::dna(), msa::consensus(aln, Alphabet::dna()));
  // Independent mutations mostly cancel: the consensus is very close to
  // the ancestor. Unit-cost edit distance is minus the global score under
  // match 0, mismatch -1, gap -1.
  const SubstitutionMatrix identity = scoring::identity(Alphabet::dna(), 0, -1);
  const ScoringScheme unit_cost(identity, -1);
  const double d = -static_cast<double>(global_score_linear(
      cons.residues(), ancestor.residues(), unit_cost));
  EXPECT_LT(d / static_cast<double>(ancestor.size()), 0.10);
}

}  // namespace
}  // namespace flsa
