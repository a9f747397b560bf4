#ifndef GKS_COMMON_FLAGS_H_
#define GKS_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace gks {

/// Upper bound of every count flag (--threads, --connections, --shards,
/// --repeat). Each count sizes threads, sockets or buffers up front, so a
/// typo must fail as a usage error instead of asking for SIZE_MAX of them.
constexpr int64_t kMaxCountFlag = 1024;

/// Minimal command-line parser for the CLI and tools: supports
/// `--name=value`, `--name value`, bare boolean `--name`, and positional
/// arguments. No registration needed; callers read typed values with
/// defaults and may validate the flag set against a known list.
class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  /// Bare `--flag` and `--flag=true/1/yes` are true.
  bool GetBool(const std::string& name, bool default_value = false) const;

  /// InvalidArgument ("unknown flag: --name") if any parsed flag is not in
  /// `known` (names without the leading dashes).
  Status Validate(const std::vector<std::string>& known) const;
  /// InvalidArgument unless each flag in `counts` that is set holds an
  /// integer in [0, kMaxCountFlag]; GetInt then reads it safely.
  Status ValidateCounts(const std::vector<std::string>& counts) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Prints `error: <status>` to stderr and returns the usage exit code (2):
/// how the command-line tools report a bad flag.
int FlagError(const Status& status);

}  // namespace gks

#endif  // GKS_COMMON_FLAGS_H_
