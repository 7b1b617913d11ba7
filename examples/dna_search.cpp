// DNA read search — the paper's non-natural-language workload (§5.6–5.8).
//
// Generates reads from a synthetic genome (the near-duplicate clustering of
// real read sets), then demonstrates the paper's DNA-side conclusion: the
// trie index beats the sequential scan on long strings with a tiny
// alphabet.
//
// Usage: dna_search [num_reads] [num_queries]
#include <cstdio>
#include <cstdlib>

#include "core/searcher.h"
#include "gen/dna_generator.h"
#include "gen/query_generator.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  const size_t num_reads =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const size_t num_queries =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50;

  std::printf("generating %zu reads (~100bp) from a synthetic genome...\n",
              num_reads);
  sss::gen::DnaGeneratorOptions gen_options;
  gen_options.num_reads = num_reads;
  gen_options.genome_length = 1 << 18;  // high coverage: many near-dupes
  sss::Dataset reads =
      sss::gen::DnaReadGenerator(gen_options, /*seed=*/2013).Generate();

  const sss::DatasetStats stats = reads.ComputeStats();
  std::printf("dataset: %zu reads, alphabet %zu, length %zu..%zu\n",
              stats.num_strings, stats.alphabet_size, stats.min_length,
              stats.max_length);

  // The paper's DNA thresholds: k ∈ {0, 4, 8, 16}.
  sss::gen::QueryGeneratorOptions q_options;
  q_options.num_queries = num_queries;
  q_options.thresholds = {0, 4, 8, 16};
  const sss::QuerySet queries =
      sss::gen::MakeQuerySet(reads, q_options, /*seed=*/7);

  const sss::ExecutionOptions exec{sss::ExecutionStrategy::kFixedPool, 8};
  for (sss::EngineKind kind : {sss::EngineKind::kSequentialScan,
                               sss::EngineKind::kTrieIndex,
                               sss::EngineKind::kCompressedTrieIndex}) {
    auto searcher = sss::MakeSearcher(kind, reads);
    searcher.status().AbortIfNotOK();
    sss::Stopwatch timer;
    const sss::SearchResults results = (*searcher)->SearchBatch(queries, exec);
    const double seconds = timer.ElapsedSeconds();
    size_t total_matches = 0;
    for (const auto& m : results) total_matches += m.size();
    std::printf("%-24s %8.3f s   (%zu queries, %zu matches, index %.1f MB)\n",
                (*searcher)->name().c_str(), seconds, queries.size(),
                total_matches,
                static_cast<double>((*searcher)->memory_bytes()) / 1e6);
  }
  return 0;
}
