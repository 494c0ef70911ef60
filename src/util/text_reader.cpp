#include "util/text_reader.hpp"

#include <charconv>
#include <cstring>
#include <istream>

namespace oneport {

namespace {

constexpr bool is_field_separator(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

}  // namespace

const char* import_error_kind_name(ImportError::Kind kind) {
  using Kind = ImportError::Kind;
  switch (kind) {
    case Kind::kIo: return "io";
    case Kind::kSyntax: return "syntax";
    case Kind::kTruncatedDump: return "truncated-dump";
    case Kind::kDuplicateNode: return "duplicate-node";
    case Kind::kUnknownNode: return "unknown-node";
    case Kind::kBadWeight: return "bad-weight";
    case Kind::kDuplicateEdge: return "duplicate-edge";
    case Kind::kCycle: return "cycle";
  }
  return "unknown";
}

void throw_import_error(ImportError::Kind kind, const std::string& message) {
  std::string text = import_error_kind_name(kind);
  text += ": ";
  text += message;
  throw ImportError(kind, text);
}

NumberStatus parse_real(std::string_view token, double& value) {
  const char* const last = token.data() + token.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), last, parsed);
  if (ptr != last || ec == std::errc::invalid_argument) {
    return NumberStatus::kNotANumber;
  }
  if (ec == std::errc::result_out_of_range) return NumberStatus::kOutOfRange;
  value = parsed;
  return NumberStatus::kOk;
}

NumberStatus parse_index(std::string_view token, std::uint64_t& value) {
  const char* const last = token.data() + token.size();
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), last, parsed);
  if (ptr != last || ec == std::errc::invalid_argument) {
    return NumberStatus::kNotANumber;
  }
  if (ec == std::errc::result_out_of_range) return NumberStatus::kOutOfRange;
  value = parsed;
  return NumberStatus::kOk;
}

std::string_view next_field(std::string_view& line) noexcept {
  std::size_t begin = 0;
  while (begin < line.size() && is_field_separator(line[begin])) ++begin;
  std::size_t end = begin;
  while (end < line.size() && !is_field_separator(line[end])) ++end;
  const std::string_view field = line.substr(begin, end - begin);
  line.remove_prefix(end);
  return field;
}

std::string_view trim(std::string_view text) noexcept {
  // Plain loops: the library's find_first_not_of calls memchr per byte.
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!text.empty() && blank(text.front())) text.remove_prefix(1);
  while (!text.empty() && blank(text.back())) text.remove_suffix(1);
  return text;
}

TextReader::TextReader(std::istream& is) : is_(&is), window_(kChunk) {
  pos_ = end_ = window_.data();
}

bool TextReader::next_line(std::string_view& line) {
  while (true) {
    const auto* newline = static_cast<const char*>(
        std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_)));
    if (newline != nullptr) {
      line = {pos_, static_cast<std::size_t>(newline - pos_)};
      pos_ = newline + 1;
      break;
    }
    if (refill()) continue;
    if (pos_ == end_) return false;
    line = {pos_, static_cast<std::size_t>(end_ - pos_)};
    pos_ = end_;
    break;
  }
  ++line_;
  return true;
}

bool TextReader::refill() {
  if (is_ == nullptr || !is_->good()) return false;
  const auto tail = static_cast<std::size_t>(end_ - pos_);
  const auto start = static_cast<std::size_t>(pos_ - window_.data());
  if (tail == window_.size()) window_.resize(2 * window_.size());
  std::memmove(window_.data(), window_.data() + start, tail);
  is_->read(window_.data() + tail,
            static_cast<std::streamsize>(window_.size() - tail));
  if (is_->bad()) {
    throw_import_error(ImportError::Kind::kIo, "read error on the input stream");
  }
  const auto got = static_cast<std::size_t>(is_->gcount());
  pos_ = window_.data();
  end_ = pos_ + tail + got;
  return got > 0;
}

}  // namespace oneport
