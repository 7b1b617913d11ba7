// Ablation: every exact engine on both paper workloads.
//
// Beyond the paper's two competitors (and the compressed trie), the library
// ships the pigeonhole partition index from the related work its §2.3
// discusses (Pass-Join's segment rule). This bench races them with
// identical batches, serial, so engine quality is isolated from
// parallelism.
//
// Expected shape (EXPERIMENTS.md, engine zoo):
//   city  — both banded tries lead at about half the scan's time; the
//           partition index sits between them and the scan;
//   DNA   — the partition index leads by about 4x; the scan and both tries
//           are within 1.3x of each other.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/searcher.h"

namespace sss::bench {
namespace {

gen::WorkloadKind KindOf(int64_t arg) {
  return arg == 0 ? gen::WorkloadKind::kCityNames
                  : gen::WorkloadKind::kDnaReads;
}

constexpr EngineKind kEngines[] = {
    EngineKind::kSequentialScan,
    EngineKind::kTrieIndex,
    EngineKind::kCompressedTrieIndex,
    EngineKind::kPartitionIndex,
};

const Searcher* Engine(gen::WorkloadKind kind, int engine_idx) {
  static std::unique_ptr<Searcher> engines[2][std::size(kEngines)];
  const int ki = kind == gen::WorkloadKind::kCityNames ? 0 : 1;
  if (engines[ki][engine_idx] == nullptr) {
    engines[ki][engine_idx] =
        std::move(MakeSearcher(kEngines[engine_idx],
                               SharedWorkload(kind).dataset))
            .ValueOrDie();
  }
  return engines[ki][engine_idx].get();
}

void BM_EngineZoo(benchmark::State& state) {
  const gen::WorkloadKind kind = KindOf(state.range(0));
  const int engine_idx = static_cast<int>(state.range(1));
  const Searcher* engine = Engine(kind, engine_idx);
  const BenchWorkload& w = SharedWorkload(kind);
  RunBatchBenchmark(state, *engine, w.Batch(100),
                    {ExecutionStrategy::kSerial, 0});
  state.SetLabel(engine->name());
  state.counters["index_mb"] =
      static_cast<double>(engine->memory_bytes()) / 1e6;
}
BENCHMARK(BM_EngineZoo)
    ->ArgNames({"workload", "engine"})
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}})
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace
}  // namespace sss::bench

SSS_BENCH_MAIN(
    "Ablation: engine zoo (engine 0=scan 1=trie 2=ctrie 3=partition)",
    sss::gen::WorkloadKind::kCityNames)
