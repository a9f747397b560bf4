#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace gks {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      // `--name value` form — but only when the next token is clearly a
      // value; bare flags before positionals use `--name=value` instead.
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return default_value;
  return std::atoll(it->second.c_str());
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return default_value;
  return std::atof(it->second.c_str());
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string& value = it->second;
  return value.empty() || value == "true" || value == "1" || value == "yes";
}

Status FlagParser::Validate(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    bool found = false;
    for (const std::string& candidate : known) {
      if (candidate == name) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
  }
  return Status::OK();
}

Status FlagParser::ValidateCounts(
    const std::vector<std::string>& counts) const {
  for (const std::string& name : counts) {
    auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) continue;  // default
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    long long value = std::strtoll(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || value < 0 ||
        value > kMaxCountFlag) {
      return Status::InvalidArgument(
          "--" + name + " must be an integer in [0, " +
          std::to_string(kMaxCountFlag) + "] (got '" + it->second + "')");
    }
  }
  return Status::OK();
}

int FlagError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace gks
