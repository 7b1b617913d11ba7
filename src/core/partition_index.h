// PartitionIndexSearcher — the pigeonhole-partitioning index family the
// paper's related work describes (Navarro et al.: "splitting the query
// string and later integrating the particular results" to tame the
// exponential k-dependence).
//
// Principle: partition every data string into (k_max + 1) contiguous
// pieces. k ≤ k_max edit operations can corrupt at most k pieces, so at
// least one piece of any true match survives EXACTLY in the query, shifted
// by at most k positions. The index maps (piece bytes, string length,
// piece number) → string ids; a query probes every piece/shift combination,
// unions the candidates, and verifies them with the edit-distance kernel.
//
// Known trade-off: probe count grows ~O(k²·pieces), and short pieces match
// many strings. On long DNA reads the pieces stay selective, and this is
// the fastest exact engine at k >= 4 (k = 16 included); on short city names
// at k = 3 the pieces are a character or two long and the scan wins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/searcher.h"
#include "io/dataset.h"

namespace sss {

/// \brief Configuration of the partition index.
struct PartitionIndexOptions {
  /// Largest threshold the index supports; queries with
  /// max_distance > max_k fall back to a filtered scan. Data strings are
  /// split into max_k + 1 pieces.
  int max_k = 3;
};

/// \brief Pigeonhole partition index engine.
class PartitionIndexSearcher final : public Searcher {
 public:
  /// Builds the piece tables over `snapshot` (pinned for the searcher's
  /// lifetime).
  PartitionIndexSearcher(SnapshotHandle snapshot,
                         PartitionIndexOptions options = {});

  /// Legacy borrowed-dataset overload: `dataset` must outlive this
  /// searcher.
  PartitionIndexSearcher(const Dataset& dataset,
                         PartitionIndexOptions options = {})
      : PartitionIndexSearcher(CollectionSnapshot::Borrow(dataset), options) {
  }

  using Searcher::Search;
  Status Search(const Query& query, const SearchContext& ctx,
                MatchList* out) const override;
  std::string name() const override { return "partition_index"; }
  size_t memory_bytes() const override;
  SnapshotHandle SearchedSnapshot() const override { return snapshot_; }

  int max_k() const noexcept { return options_.max_k; }

  /// \brief Piece boundaries for a string of length `len` split into
  /// `pieces` parts (exposed for tests): piece j spans
  /// [bounds[j], bounds[j+1]).
  static std::vector<size_t> PieceBounds(size_t len, int pieces);

 private:
  struct Entry {
    uint64_t key;  // hash(piece bytes) mixed with (length, piece index)
    uint32_t id;
    bool operator<(const Entry& other) const {
      return key < other.key || (key == other.key && id < other.id);
    }
  };

  static uint64_t MakeKey(std::string_view piece, size_t len, int piece_idx);

  Status ScanFallback(const Query& query, const SearchContext& ctx,
                      MatchList* out) const;

  SnapshotHandle snapshot_;
  const Dataset& dataset_;  // == snapshot_->dataset()
  PartitionIndexOptions options_;
  std::vector<Entry> entries_;  // sorted by (key, id)
  // Strings shorter than max_k + 1 (empty pieces make the pigeonhole
  // argument unusable for them); always verified directly.
  std::vector<uint32_t> short_ids_;
};

}  // namespace sss
