#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace st {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "expected --flag, got: " + arg;
      return;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  consumed_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::getString(const std::string& name,
                             std::string fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::getInt(const std::string& name,
                           std::int64_t fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    rejectValue(name, text, "is not an integer");
    return fallback;
  }
  if (errno == ERANGE) {
    rejectValue(name, text, "is out of the 64-bit integer range");
    return fallback;
  }
  return value;
}

double Flags::getDouble(const std::string& name, double fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    rejectValue(name, text, "is not a number");
    return fallback;
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    rejectValue(name, text, "is out of the finite double range");
    return fallback;
  }
  return value;
}

void Flags::rejectValue(const std::string& name, const std::string& value,
                        const char* problem) const {
  if (!error_.empty()) return;
  error_ = "--" + name + ": '" + value + "' " + problem;
}

bool Flags::getBool(const std::string& name, bool fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> result;
  for (const auto& [name, value] : values_) {
    if (!consumed_.count(name)) result.push_back(name);
  }
  return result;
}

}  // namespace st
