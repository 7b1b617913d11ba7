// Shared test helpers: an independent brute-force edit-distance reference
// (deliberately written differently from any library kernel), random string
// factories, a brute-force similarity search, and a one-engine EngineHost
// generation for serving test engines.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_host.h"
#include "io/dataset.h"
#include "util/random.h"

namespace sss::testing {

/// \brief Brute-force Levenshtein via plain recursion with memoization —
/// structurally unlike the DP kernels it validates.
inline int ReferenceEditDistance(std::string_view x, std::string_view y) {
  const size_t lx = x.size(), ly = y.size();
  std::vector<int> memo((lx + 1) * (ly + 1), -1);
  const auto idx = [ly](size_t i, size_t j) { return i * (ly + 1) + j; };
  // Iterative bottom-up over suffixes (i = chars of x left, j = of y).
  for (size_t i = 0; i <= lx; ++i) {
    for (size_t j = 0; j <= ly; ++j) {
      if (i == 0) {
        memo[idx(i, j)] = static_cast<int>(j);
      } else if (j == 0) {
        memo[idx(i, j)] = static_cast<int>(i);
      } else {
        const int same = x[lx - i] == y[ly - j] ? memo[idx(i - 1, j - 1)]
                                                : memo[idx(i - 1, j - 1)] + 1;
        memo[idx(i, j)] =
            std::min({same, memo[idx(i - 1, j)] + 1, memo[idx(i, j - 1)] + 1});
      }
    }
  }
  return memo[idx(lx, ly)];
}

/// \brief Uniform random string over `alphabet` with length in [min, max].
inline std::string RandomString(Xoshiro256* rng, std::string_view alphabet,
                                size_t min_len, size_t max_len) {
  const size_t len = min_len + rng->Uniform(max_len - min_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng->Uniform(alphabet.size())]);
  }
  return s;
}

/// \brief A dataset of `n` random strings.
inline Dataset RandomDataset(Xoshiro256* rng, std::string_view alphabet,
                             size_t n, size_t min_len, size_t max_len,
                             AlphabetKind kind = AlphabetKind::kGeneric) {
  Dataset d("random", kind);
  for (size_t i = 0; i < n; ++i) {
    d.Add(RandomString(rng, alphabet, min_len, max_len));
  }
  return d;
}

/// \brief Brute-force similarity search (the ground truth for engine tests).
inline MatchList BruteForceSearch(const Dataset& dataset,
                                  const Query& query) {
  MatchList out;
  for (size_t id = 0; id < dataset.size(); ++id) {
    if (ReferenceEditDistance(query.text, dataset.View(id)) <=
        query.max_distance) {
      out.push_back(static_cast<uint32_t>(id));
    }
  }
  return out;
}

/// \brief Publishes `engine` (borrowed; must outlive every pin of the
/// generation) as `host`'s only engine: under wire id 0
/// (uint8_t(EngineKind::kSequentialScan)) and as the default for requests
/// that name none. The generation is the version of
/// the snapshot the engine searches (0 for wrappers that report none). This
/// is how servers in tests serve engines an EngineHost cannot build, such
/// as searchers that stall on cue.
inline Status PublishEngine(EngineHost* host, const Searcher* engine) {
  auto set = std::make_shared<EngineSet>();
  set->snapshot = engine->SearchedSnapshot();
  set->generation = set->snapshot == nullptr ? 0 : set->snapshot->version();
  set->by_id[0] = engine;
  set->default_engine = engine;
  return host->Publish(std::move(set));
}

}  // namespace sss::testing
