// Minimal command-line flag parsing for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. A binary reads every flag it takes through the getters, then
// calls check(): flags nobody read, positionals the binary does not take,
// and malformed values are reported rather than ignored, so a typo never
// silently runs something else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/status.h"

namespace prose {

class CliFlags {
 public:
  /// Parses argv (excluding argv[0]); positional arguments are collected in
  /// order. Flags are declared by first use of a getter (or has()).
  static StatusOr<CliFlags> parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters. A value that does not parse completely as the asked type
  /// (e.g. `--jobs 4x`, `--diagnose maybe`) yields `fallback` and is
  /// reported by check().
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Call once every flag has been read. InvalidArgument naming each
  /// offending argument when a flag was never read (unknown to this binary),
  /// when there are more than `max_positional` positional arguments, or when
  /// a getter met a malformed value; ok otherwise.
  [[nodiscard]] Status check(std::size_t max_positional = 0) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;        // flags some getter asked for
  mutable std::vector<std::string> errors_;   // malformed values, in read order
};

}  // namespace prose
