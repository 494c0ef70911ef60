// Small CSV / aligned-table emitters used by the benchmark harnesses and
// examples to print the series behind each figure of the paper.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace oneport::csv {

/// Accumulates rows of stringly-typed cells and renders them either as CSV
/// or as an aligned, human-readable table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

  /// Renders `name,value,...` comma-separated lines (header first).
  void write_csv(std::ostream& os) const;

  /// Renders a column-aligned table suitable for terminal output.
  void write_pretty(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places (printf "%.*f"
/// rounding), trimming trailing zeros ("3.50" -> "3.5", "4.00" -> "4").
[[nodiscard]] std::string format_number(double value, int digits = 3);

}  // namespace oneport::csv
