#include "util/text_writer.hpp"

#include <algorithm>
#include <ostream>

namespace oneport {

char* format_trimmed_fixed(char* first, double value, int digits) {
  char* last = std::to_chars(first, first + max_trimmed_fixed_chars(digits),
                             value, std::chars_format::fixed, digits)
                   .ptr;
  if (std::find(first, last, '.') != last) {
    while (last != first && last[-1] == '0') --last;
    if (last != first && last[-1] == '.') --last;
  }
  return last;
}

void TextWriter::put(std::string_view text) {
  while (!text.empty()) {
    if (used_ == buf_.size()) flush();
    const std::size_t n = std::min(text.size(), buf_.size() - used_);
    std::copy_n(text.data(), n, cursor());
    used_ += n;
    text.remove_prefix(n);
  }
}

void TextWriter::flush() {
  os_.write(buf_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

}  // namespace oneport
