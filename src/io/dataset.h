// Dataset and query representations shared by the generators, the file
// readers, and both search engines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/string_pool.h"

namespace sss {

/// \brief What alphabet a dataset is drawn from. Engines use this to pick
/// specialized settings (e.g. the symbols the frequency filter tracks).
enum class AlphabetKind {
  kGeneric,  // arbitrary single-byte symbols (city names: Latin-1)
  kDna,      // {A, C, G, N, T}
};

/// \brief Summary statistics in the shape of the paper's Table I.
struct DatasetStats {
  size_t num_strings = 0;
  size_t alphabet_size = 0;     // distinct byte values observed
  size_t min_length = 0;
  size_t max_length = 0;
  double avg_length = 0.0;
  size_t total_bytes = 0;
};

/// \brief An immutable string collection to search, backed by a StringPool.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, AlphabetKind alphabet)
      : name_(std::move(name)), alphabet_(alphabet) {}

  /// \brief Appends a string; returns its dense id.
  uint32_t Add(std::string_view s) { return pool_.Add(s); }

  void Reserve(size_t count, size_t bytes) { pool_.Reserve(count, bytes); }

  size_t size() const noexcept { return pool_.size(); }
  bool empty() const noexcept { return pool_.empty(); }

  /// \brief Zero-copy view of string `id`.
  std::string_view View(size_t id) const noexcept { return pool_.View(id); }
  std::string_view operator[](size_t id) const noexcept {
    return pool_.View(id);
  }
  size_t Length(size_t id) const noexcept { return pool_.Length(id); }

  const StringPool& pool() const noexcept { return pool_; }
  const std::string& name() const noexcept { return name_; }
  AlphabetKind alphabet() const noexcept { return alphabet_; }

  /// \brief Scans the pool and computes Table-I style statistics.
  DatasetStats ComputeStats() const;

 private:
  std::string name_;
  AlphabetKind alphabet_ = AlphabetKind::kGeneric;
  StringPool pool_;
};

/// \brief One similarity query: find all strings within edit distance
/// `max_distance` of `text`.
struct Query {
  std::string text;
  int max_distance = 0;
};

/// \brief An ordered batch of queries, executed together as in the
/// competition setup (100 / 500 / 1000 queries per run).
using QuerySet = std::vector<Query>;

/// \brief Ids of matching dataset strings for one query, ascending.
using MatchList = std::vector<uint32_t>;

/// \brief Per-query match lists, parallel to the QuerySet.
using SearchResults = std::vector<MatchList>;

}  // namespace sss
