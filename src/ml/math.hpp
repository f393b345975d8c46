#pragma once
// Minimal dense math kernels for the ML substrate.
//
// Models keep their parameters in one flat float vector (which is exactly
// the shape FL model updates travel in); these kernels operate on spans into
// that storage.  Row-major everywhere: W is rows x cols, W[r*cols + c].
//
// matvec, matvec_transposed, outer_accumulate, axpy, softmax_in_place,
// log_sum_exp and tanh_derivative_from_output are the reference, not the
// hot path: MlpLm's block kernel (model.cpp) runs its own products, and
// no code in src/ calls them.  The test
// MlpLm.BlockKernelMatchesPerExampleReferenceBitForBit (tests/ml_test.cpp)
// runs them one prediction at a time and requires the kernel's bits to
// match, so the order of their operations must not change (each sum runs
// in index order from 0.0f).  benchmark/trace_wraps.cpp wraps the first
// three by their mangled names, so their signatures must not change
// either.  norm and clip_norm serve the optimizers and the aggregation
// fold.

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

/// 1 - t^2: tanh's derivative, given t = tanh(x).
float tanh_derivative_from_output(float tanh_x);

/// L2 norm.
float norm(std::span<const float> x);

/// Scale x so its L2 norm is at most `max_norm` (gradient clipping).
/// Returns false, leaving x untouched, when x holds a NaN or an infinity:
/// no rescale makes such a vector finite.
[[nodiscard]] bool clip_norm(std::span<float> x, float max_norm);

}  // namespace papaya::ml
