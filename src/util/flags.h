// Minimal command-line flag parsing for the tools:
// "--key value", "--key=value", and boolean "--switch" forms, plus
// positional arguments. No registry, no statics — parse argv into a map and
// query it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace sss {

/// \brief Parsed command line: flags plus positional arguments in order.
class FlagSet {
 public:
  /// \brief Parses argv[1..argc). Fails on a dangling "--key" with
  /// `value_flags` naming keys that require values (others are boolean).
  static Result<FlagSet> Parse(int argc, const char* const* argv);

  /// \brief True iff --name was present (with or without a value).
  bool Has(std::string_view name) const;

  /// \brief String value of --name, or `fallback` when absent; fails when
  /// --name is given without a value.
  Result<std::string> GetString(std::string_view name,
                                std::string fallback) const;

  /// \brief Integer value of --name; fails on unparsable values.
  Result<int64_t> GetInt(std::string_view name, int64_t fallback) const;

  /// \brief Double value of --name; fails on unparsable values.
  Result<double> GetDouble(std::string_view name, double fallback) const;

  /// \brief Boolean: present without value, or "true"/"1"/"false"/"0".
  Result<bool> GetBool(std::string_view name, bool fallback) const;

  /// \brief Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// \brief Flags that were parsed but never queried — for unknown-flag
  /// diagnostics. Call after all Get*/Has calls.
  std::vector<std::string> UnreadFlags() const;

 private:
  struct Value {
    std::string text;
    bool has_text = false;
    mutable bool read = false;
  };
  std::map<std::string, Value, std::less<>> flags_;
  std::vector<std::string> positional_;
};

/// \brief Prints "<program>: unknown flag --NAME" on stderr for every flag
/// of `flags` that was parsed but never read, and returns true iff there was
/// none. A tool calls it once it has read every flag it knows: a typo or a
/// removed option then fails instead of running silently without it.
bool RejectUnreadFlags(const FlagSet& flags, std::string_view program);

}  // namespace sss
