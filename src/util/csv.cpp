#include "util/csv.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "util/error.hpp"
#include "util/text_writer.hpp"

namespace oneport::csv {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  OP_REQUIRE(!header_.empty(), "table header must be non-empty");
}

void Table::add_row(std::vector<std::string> row) {
  OP_REQUIRE(row.size() == header_.size(),
             "row arity " << row.size() << " != header arity "
                          << header_.size());
  rows_.push_back(std::move(row));
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&os](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      os << cells[i];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void Table::write_pretty(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) width[i] = header_[i].size();
  for (const auto& row : rows_)
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(width[i]) + 2) << cells[i];
    }
    os << '\n';
  };
  emit(header_);
  std::string rule;
  for (std::size_t i = 0; i < header_.size(); ++i)
    rule += std::string(width[i], '-') + "  ";
  os << rule << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string format_number(double value, int digits) {
  std::string s(max_trimmed_fixed_chars(digits), '\0');
  s.resize(static_cast<std::size_t>(
      format_trimmed_fixed(s.data(), value, digits) - s.data()));
  return s;
}

}  // namespace oneport::csv
