// Tiny command-line parser for the examples and benchmark harnesses.
// Accepts "--key=value" and "--flag"; anything else is a positional.
// get_int, get_u64 and get_double take a value only as one whole number
// token and throw std::invalid_argument naming the flag otherwise, so
// "2x", "abc", "-1" for a seed or "nan" never runs as some other number.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/text_reader.hpp"

namespace oneport {

/// All of `value` as a decimal int ([-]digits, nothing after); throws
/// std::invalid_argument naming --`flag` and the value otherwise.
[[nodiscard]] inline int parse_int_flag(std::string_view flag,
                                        std::string_view value) {
  int parsed = 0;
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, parsed);
  if (ptr == last && ec == std::errc{}) return parsed;
  throw std::invalid_argument(
      "--" + std::string(flag) + " expects an integer" +
      (ec == std::errc::result_out_of_range ? " in int's range" : "") +
      ", got '" + std::string(value) + "'");
}

/// All of `value` as a decimal std::uint64_t (digits only: no sign,
/// nothing after); throws std::invalid_argument naming --`flag` and the
/// value otherwise.
[[nodiscard]] inline std::uint64_t parse_u64_flag(std::string_view flag,
                                                  std::string_view value) {
  std::uint64_t parsed = 0;
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, parsed);
  if (ptr == last && ec == std::errc{}) return parsed;
  throw std::invalid_argument(
      "--" + std::string(flag) + " expects an unsigned integer" +
      (ec == std::errc::result_out_of_range ? " below 2^64" : "") +
      ", got '" + std::string(value) + "'");
}

/// The non-empty items of a comma-separated list.
[[nodiscard]] inline std::vector<std::string> split_list(
    const std::string& csv_list) {
  std::vector<std::string> out;
  std::stringstream ss(csv_list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The items of a comma-separated list of --`flag`, each a positive int
/// (parse_int_flag); throws std::invalid_argument otherwise.
[[nodiscard]] inline std::vector<int> split_ints(std::string_view flag,
                                                 const std::string& csv_list) {
  std::vector<int> out;
  for (const std::string& item : split_list(csv_list)) {
    const int value = parse_int_flag(flag, item);
    if (value <= 0) {
      throw std::invalid_argument(std::string(flag) +
                                  " must be positive integers, got '" + item +
                                  "'");
    }
    out.push_back(value);
  }
  return out;
}

class Args {
 public:
  Args(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.starts_with("--")) {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          options_[arg.substr(2)] = "";
        } else {
          options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return options_.contains(key);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  /// `fallback` when --`key` is absent, else parse_int_flag of its value.
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : parse_int_flag(key, it->second);
  }
  /// `fallback` when --`key` is absent, else parse_u64_flag of its value.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : parse_u64_flag(key, it->second);
  }
  /// `fallback` when --`key` is absent, else all of its value as a
  /// finite double (util/text_reader.hpp's parse_real grammar); throws
  /// std::invalid_argument naming --`key` and the value otherwise.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    double parsed = 0.0;
    if (parse_real(it->second, parsed) == NumberStatus::kOk &&
        std::isfinite(parsed)) {
      return parsed;
    }
    throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                                it->second + "'");
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace oneport
