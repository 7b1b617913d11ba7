// CompressedTrieSearcher — the paper's §4.2 improvement: a path-compressed
// (radix) trie. Chains of single-child nodes collapse into one node carrying
// a multi-character edge label (Fig. 4: "Berlin"/"Bern"/"Ulm" halves the
// node count), cutting memory and the per-node bookkeeping on descent.
//
// Edge labels are zero-copy views into the dataset's StringPool (stable for
// the life of the dataset), so compression costs no label storage at all.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/filters.h"
#include "core/searcher.h"
#include "core/trie.h"
#include "io/dataset.h"
#include "util/status.h"

namespace sss {

/// \brief The path-compressed prefix-trie engine (paper §4.2).
class CompressedTrieSearcher final : public Searcher {
 public:
  /// Builds the radix trie over `snapshot` (pinned for the searcher's
  /// lifetime; edge labels alias its dataset's storage). `pruning` selects
  /// the descent rule (see TriePruning): the paper-faithful k + d_m test or
  /// this library's banded rows. `frequency_bounds` additionally stores
  /// per-subtree frequency-vector ranges in every node and prunes branches
  /// whose symbol counts cannot reach the query — PETER's early filtering
  /// (Rheinländer et al., discussed in the paper's §2.3).
  explicit CompressedTrieSearcher(
      SnapshotHandle snapshot,
      TriePruning pruning = TriePruning::kBandedRows,
      bool frequency_bounds = false);

  /// Legacy borrowed-dataset overload: `dataset` must outlive this
  /// searcher.
  explicit CompressedTrieSearcher(
      const Dataset& dataset, TriePruning pruning = TriePruning::kBandedRows,
      bool frequency_bounds = false)
      : CompressedTrieSearcher(CollectionSnapshot::Borrow(dataset), pruning,
                               frequency_bounds) {}

  using Searcher::Search;
  Status Search(const Query& query, const SearchContext& ctx,
                MatchList* out) const override;
  std::string name() const override { return "compressed_trie_index"; }
  size_t memory_bytes() const override { return Stats().memory_bytes; }
  SnapshotHandle SearchedSnapshot() const override { return snapshot_; }

  /// \brief Node counts and sizes (compare against TrieSearcher::Stats for
  /// the Fig. 4 compression ratio).
  TrieStats Stats() const;

  TriePruning pruning() const noexcept { return pruning_; }

 private:
  Status SearchBanded(const Query& query, const SearchContext& ctx,
                      MatchList* out) const;
  Status SearchPaperRule(const Query& query, const SearchContext& ctx,
                         MatchList* out) const;

  struct Node {
    // The multi-character edge label leading *into* this node (empty for
    // the root); a view into the dataset pool.
    const char* label = nullptr;
    uint32_t label_len = 0;
    // Sorted (first label byte → node index) edges.
    std::vector<std::pair<unsigned char, uint32_t>> children;
    std::vector<uint32_t> terminal_ids;
    uint16_t min_len = UINT16_MAX;
    uint16_t max_len = 0;
    // Per-bucket count ranges over the subtree (PETER-style metadata; only
    // maintained when frequency_bounds is on).
    FrequencyVector freq_min{};
    FrequencyVector freq_max{};

    std::string_view label_view() const {
      return std::string_view(label, label_len);
    }
  };

  void Insert(std::string_view s, uint32_t id);

  /// Index of the edge slot for byte `c` in `node`, or npos.
  static size_t EdgeSlot(const Node& node, unsigned char c);

  /// True iff the query's vector is compatible with `node`'s subtree count
  /// ranges at threshold k (always true when bounds are off).
  bool FrequencyCompatible(const Node& node, const FrequencyVector& qv,
                           int k) const noexcept;

  SnapshotHandle snapshot_;
  const Dataset& dataset_;  // == snapshot_->dataset()
  TriePruning pruning_;
  bool frequency_bounds_;
  SymbolBuckets buckets_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

}  // namespace sss
