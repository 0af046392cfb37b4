// Tiny command-line parser shared by benches and examples.
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dgap {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def = "") const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  // Positional (non --key) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

// Split "a,b,c" into {"a","b","c"}; empty string -> {}.
std::vector<std::string> split_csv(const std::string& s);

// Strict positive-integer parse: the whole string must be a base-10
// integer > 0 (no trailing garbage — Cli::get_int tolerates it). Throws
// std::invalid_argument naming `flag` otherwise.
std::int64_t parse_positive_int(const std::string& s, const std::string& flag);

// Same, with an inclusive upper bound (shared by every CLI that caps a
// knob, e.g. --async-writers <= 1024, so caps and messages cannot drift apart).
std::int64_t parse_positive_int_capped(const std::string& s,
                                       const std::string& flag,
                                       std::int64_t max);

}  // namespace dgap
