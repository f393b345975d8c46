#include "ml/math.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace papaya::ml {

void matvec(std::span<const float> w, std::span<const float> x,
            std::span<float> y, std::size_t rows, std::size_t cols) {
  assert(w.size() == rows * cols && x.size() == cols && y.size() == rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w.data() + r * cols;
    float acc = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void matvec_transposed(std::span<const float> w, std::span<const float> x,
                       std::span<float> y, std::size_t rows, std::size_t cols) {
  assert(w.size() == rows * cols && x.size() == rows && y.size() == cols);
  std::fill(y.begin(), y.end(), 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w.data() + r * cols;
    const float xr = x[r];
    for (std::size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

void outer_accumulate(std::span<float> w, std::span<const float> a,
                      std::span<const float> b, float alpha, std::size_t rows,
                      std::size_t cols) {
  assert(w.size() == rows * cols && a.size() == rows && b.size() == cols);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = w.data() + r * cols;
    const float ar = alpha * a[r];
    for (std::size_t c = 0; c < cols; ++c) row[c] += ar * b[c];
  }
}

void axpy(std::span<float> out, std::span<const float> x, float alpha) {
  assert(out.size() == x.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += alpha * x[i];
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void softmax_in_place(std::span<float> x) {
  const float m = *std::max_element(x.begin(), x.end());
  float sum = 0.0f;
  for (auto& v : x) {
    v = std::exp(v - m);
    sum += v;
  }
  for (auto& v : x) v /= sum;
}

float log_sum_exp(std::span<const float> x) {
  const float m = *std::max_element(x.begin(), x.end());
  float sum = 0.0f;
  for (float v : x) sum += std::exp(v - m);
  return m + std::log(sum);
}

float tanh_derivative_from_output(float tanh_x) { return 1.0f - tanh_x * tanh_x; }

namespace {

double sum_of_squares(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * v;
  return acc;
}

}  // namespace

float norm(std::span<const float> x) {
  return static_cast<float>(std::sqrt(sum_of_squares(x)));
}

bool clip_norm(std::span<float> x, float max_norm) {
  // The double sum of squares of finite floats is finite, so it is
  // non-finite exactly when x holds a NaN or an infinity.
  const double acc = sum_of_squares(x);
  if (!std::isfinite(acc)) return false;
  const auto n = static_cast<float>(std::sqrt(acc));
  if (n > max_norm && n > 0.0f) {
    const float s = max_norm / n;
    for (auto& v : x) v *= s;
  }
  return true;
}

}  // namespace papaya::ml
