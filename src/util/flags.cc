#include "util/flags.h"

#include <charconv>
#include <cstdio>

namespace sss {

Result<FlagSet> FlagSet::Parse(int argc, const char* const* argv) {
  FlagSet set;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      set.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      // --key=value
      Value v;
      v.text = std::string(body.substr(eq + 1));
      v.has_text = true;
      set.flags_[std::string(body.substr(0, eq))] = std::move(v);
      continue;
    }
    // --key value  or boolean --key. A following token that does not start
    // with "--" is consumed as the value.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      Value v;
      v.text = argv[i + 1];
      v.has_text = true;
      set.flags_[std::string(body)] = std::move(v);
      ++i;
    } else {
      set.flags_[std::string(body)] = Value{};
    }
  }
  return set;
}

bool FlagSet::Has(std::string_view name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  it->second.read = true;
  return true;
}

Result<std::string> FlagSet::GetString(std::string_view name,
                                       std::string fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  it->second.read = true;
  if (!it->second.has_text) {
    return Status::Invalid("flag --" + std::string(name) +
                           " requires a value");
  }
  return it->second.text;
}

Result<int64_t> FlagSet::GetInt(std::string_view name,
                                int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  it->second.read = true;
  if (!it->second.has_text) {
    return Status::Invalid("flag --" + std::string(name) +
                           " requires an integer value");
  }
  const std::string& text = it->second.text;
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::Invalid("flag --" + std::string(name) +
                           ": cannot parse integer from '" + text + "'");
  }
  return value;
}

Result<double> FlagSet::GetDouble(std::string_view name,
                                  double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  it->second.read = true;
  if (!it->second.has_text) {
    return Status::Invalid("flag --" + std::string(name) +
                           " requires a numeric value");
  }
  const std::string& text = it->second.text;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::Invalid("flag --" + std::string(name) +
                           ": cannot parse number from '" + text + "'");
  }
  return value;
}

Result<bool> FlagSet::GetBool(std::string_view name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  it->second.read = true;
  if (!it->second.has_text) return true;  // bare --switch
  const std::string& text = it->second.text;
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return Status::Invalid("flag --" + std::string(name) +
                         ": expected boolean, got '" + text + "'");
}

std::vector<std::string> FlagSet::UnreadFlags() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (!value.read) out.push_back(name);
  }
  return out;
}

bool RejectUnreadFlags(const FlagSet& flags, std::string_view program) {
  const std::vector<std::string> unread = flags.UnreadFlags();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "%.*s: unknown flag --%s\n",
                 static_cast<int>(program.size()), program.data(),
                 name.c_str());
  }
  return unread.empty();
}

}  // namespace sss
