#include "gen/dna_generator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace sss::gen {
namespace {

DnaGeneratorOptions SmallOptions() {
  DnaGeneratorOptions options;
  options.num_reads = 500;
  options.genome_length = 20000;
  return options;
}

TEST(DnaGeneratorTest, DeterministicForSeed) {
  DnaReadGenerator a(SmallOptions(), 42), b(SmallOptions(), 42);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(DnaGeneratorTest, GenomeUsesOnlyBases) {
  DnaReadGenerator gen(SmallOptions(), 1);
  for (char c : gen.genome()) {
    ASSERT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T') << c;
  }
  EXPECT_EQ(gen.genome().size(), SmallOptions().genome_length);
}

TEST(DnaGeneratorTest, ReadsUseReadAlphabet) {
  DnaReadGenerator gen(SmallOptions(), 2);
  for (int i = 0; i < 500; ++i) {
    const std::string read = gen.Next();
    EXPECT_EQ(read.find_first_not_of("ACGNT"), std::string::npos) << read;
  }
}

TEST(DnaGeneratorTest, ReadLengthsNearTarget) {
  DnaGeneratorOptions options = SmallOptions();
  options.read_length = 100;
  options.read_length_jitter = 4;
  DnaReadGenerator gen(options, 3);
  for (int i = 0; i < 500; ++i) {
    const std::string read = gen.Next();
    EXPECT_GE(read.size(), 96u);
    EXPECT_LE(read.size(), 104u);
  }
}

TEST(DnaGeneratorTest, GenerateMatchesTableOneShape) {
  DnaGeneratorOptions options = SmallOptions();
  options.num_reads = 2000;
  Dataset d = DnaReadGenerator(options, 5).Generate();
  EXPECT_EQ(d.size(), 2000u);
  EXPECT_EQ(d.alphabet(), AlphabetKind::kDna);
  const DatasetStats stats = d.ComputeStats();
  EXPECT_LE(stats.alphabet_size, 5u);
  EXPECT_GE(stats.alphabet_size, 4u);  // N is rare but A/C/G/T all present
  EXPECT_NEAR(stats.avg_length, 100.0, 5.0);
}

TEST(DnaGeneratorTest, NsAppearAtConfiguredRate) {
  DnaGeneratorOptions options = SmallOptions();
  options.n_rate = 0.05;
  DnaReadGenerator gen(options, 7);
  size_t ns = 0, total = 0;
  for (int i = 0; i < 1000; ++i) {
    for (char c : gen.Next()) {
      ++total;
      if (c == 'N') ++ns;
    }
  }
  EXPECT_NEAR(static_cast<double>(ns) / total, 0.05, 0.01);
}

TEST(DnaGeneratorTest, ZeroErrorReadsAreGenomeSubstrings) {
  DnaGeneratorOptions options = SmallOptions();
  options.substitution_rate = 0;
  options.insertion_rate = 0;
  options.deletion_rate = 0;
  options.n_rate = 0;
  options.reverse_strand_prob = 0;
  DnaReadGenerator gen(options, 11);
  for (int i = 0; i < 50; ++i) {
    const std::string read = gen.Next();
    EXPECT_NE(gen.genome().find(read), std::string::npos)
        << "error-free forward read must be a genome substring";
  }
}

TEST(DnaGeneratorTest, CoverageCreatesNearDuplicates) {
  // With high coverage (many reads over a small genome), some reads must
  // overlap heavily — the property the paper's DNA experiments depend on.
  DnaGeneratorOptions options;
  options.num_reads = 2000;
  options.genome_length = 4000;  // ~50x coverage
  options.reverse_strand_prob = 0;
  DnaReadGenerator gen(options, 13);
  std::set<std::string> prefixes;
  size_t collisions = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string read = gen.Next();
    if (!prefixes.insert(read.substr(0, 30)).second) ++collisions;
  }
  EXPECT_GT(collisions, 100u) << "expected shared 30-mers at 50x coverage";
}

TEST(DnaGeneratorTest, ReverseStrandReadsDiffer) {
  DnaGeneratorOptions fwd = SmallOptions();
  fwd.reverse_strand_prob = 0;
  DnaGeneratorOptions rev = SmallOptions();
  rev.reverse_strand_prob = 1.0;
  DnaReadGenerator a(fwd, 17), b(rev, 17);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace sss::gen
