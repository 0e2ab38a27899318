// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name`. Unknown
// flags are an error so typos in sweep scripts fail loudly, and so is a
// numeric flag whose value is malformed or out of range (`--users abc`).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace st {

class Flags {
 public:
  // Parses argv. On error, records a message retrievable via error().
  Flags(int argc, const char* const* argv);

  // False after a malformed command line, or once getInt()/getDouble() met
  // a value that is not a whole (resp. finite) number in range; error()
  // then names the first offending flag and value. Check it after the
  // getters have run.
  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  // True when the flag was given (with any value, or as a bare boolean).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string getString(const std::string& name,
                                      std::string fallback) const;
  // getInt/getDouble return `fallback` for a rejected value.
  [[nodiscard]] std::int64_t getInt(const std::string& name,
                                    std::int64_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& name,
                                 double fallback) const;
  [[nodiscard]] bool getBool(const std::string& name, bool fallback) const;

  // Flags consumed by any getter or has(); a main() can call this to reject
  // unknown flags: returns names that were provided but never queried.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  // Records the first rejected value (getters are const).
  void rejectValue(const std::string& name, const std::string& value,
                   const char* problem) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  mutable std::string error_;
};

}  // namespace st
