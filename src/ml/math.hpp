#pragma once
// Minimal dense math kernels for the ML substrate.
//
// Models keep their parameters in one flat float vector (which is exactly
// the shape FL model updates travel in); these kernels operate on spans into
// that storage.  Row-major everywhere: W is rows x cols, W[r*cols + c].

#include <cstddef>
#include <span>
#include <vector>

namespace papaya::ml {

/// y = W x, W: rows x cols, x: cols, y: rows.
void matvec(std::span<const float> w, std::span<const float> x,
            std::span<float> y, std::size_t rows, std::size_t cols);

/// y = W^T x, W: rows x cols, x: rows, y: cols.
void matvec_transposed(std::span<const float> w, std::span<const float> x,
                       std::span<float> y, std::size_t rows, std::size_t cols);

/// W += alpha * a b^T  (outer-product accumulate), a: rows, b: cols.
void outer_accumulate(std::span<float> w, std::span<const float> a,
                      std::span<const float> b, float alpha, std::size_t rows,
                      std::size_t cols);

/// out += alpha * x.
void axpy(std::span<float> out, std::span<const float> x, float alpha);

float dot(std::span<const float> a, std::span<const float> b);

/// In-place numerically stable softmax.
void softmax_in_place(std::span<float> x);

/// log(sum(exp(x))) computed stably.
float log_sum_exp(std::span<const float> x);

float sigmoid(float x);
float tanh_derivative_from_output(float tanh_x);

/// L2 norm.
float norm(std::span<const float> x);

/// Scale x so its L2 norm is at most `max_norm` (gradient clipping).
/// Returns false, leaving x untouched, when x holds a NaN or an infinity:
/// no rescale makes such a vector finite.
[[nodiscard]] bool clip_norm(std::span<float> x, float max_norm);

}  // namespace papaya::ml
