// Minimal dense row-major matrix used for link matrices and tables.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace oneport {

/// Dense row-major matrix with bounds-checked access.
/// Value-semantic; cheap enough for the small (p x p) link matrices the
/// scheduler manipulates.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    OP_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    OP_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Raw row-major storage for hot loops that have already validated
  /// their indices; element (r, c) lives at data()[r * cols() + c].
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] T* data() noexcept { return data_.data(); }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace oneport
