#include "support/cli.h"

#include <cerrno>
#include <cstdlib>

#include "support/strings.h"

namespace prose {

StatusOr<CliFlags> CliFlags::parse(int argc, const char* const* argv) {
  CliFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      return Status(StatusCode::kInvalidArgument, "bare '--' is not a flag");
    }
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      continue;
    }
    if (starts_with(body, "no-")) {
      flags.values_[std::string(body.substr(3))] = "false";
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // boolean `--name`.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags.values_[std::string(body)] = argv[++i];
    } else {
      flags.values_[std::string(body)] = "true";
    }
  }
  return flags;
}

bool CliFlags::has(const std::string& name) const {
  read_.insert(name);
  return values_.contains(name);
}

std::string CliFlags::get_string(const std::string& name, const std::string& fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    errors_.push_back("--" + name + " expects an integer, got '" + it->second + "'");
    return fallback;
  }
  return v;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    errors_.push_back("--" + name + " expects a number, got '" + it->second + "'");
    return fallback;
  }
  return v;
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string v = to_lower(it->second);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  errors_.push_back("--" + name + " expects a boolean, got '" + it->second + "'");
  return fallback;
}

Status CliFlags::check(std::size_t max_positional) const {
  std::vector<std::string> problems = errors_;
  for (const auto& [name, value] : values_) {
    if (!read_.contains(name)) problems.push_back("unknown flag --" + name);
  }
  for (std::size_t i = max_positional; i < positional_.size(); ++i) {
    problems.push_back("unexpected argument '" + positional_[i] + "'");
  }
  if (problems.empty()) return Status::ok();
  return Status(StatusCode::kInvalidArgument, join(problems, "; "));
}

}  // namespace prose
