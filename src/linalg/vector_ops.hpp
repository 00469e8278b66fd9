// Dense vector operations.
//
// A vector is a plain std::vector<double>; keeping the representation open
// lets callers interoperate with parsed data and RNG output without copies.
// All binary ops check dimensions and throw std::invalid_argument on
// mismatch — silent broadcasting bugs are the classic failure mode of
// hand-rolled numerical code.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/simd.hpp"

namespace drel::linalg {

using Vector = std::vector<double>;

// Raw-array kernels — the allocation-free core the Vector overloads (and the
// matrix/dataset hot loops) delegate to. Since the SIMD dispatch layer
// (linalg/simd.hpp) these route through the active backend's kernel table:
// dot_n accumulates into a FIXED 8-lane tree (the lane contract), so its
// result is bit-identical across scalar/AVX2/NEON backends but differs from
// the historical left-to-right loop by a few ULPs; axpy_n is elementwise and
// bit-identical to the naive loop under every backend.

/// <x, y> over n entries. Below two 8-lane blocks the dispatch indirection
/// costs more than the arithmetic (the dim-9 triangular solves live here),
/// so short inputs inline the scalar lane-contract emulation — bit-identical
/// to every vector backend, per the contract.
inline double dot_n(const double* x, const double* y, std::size_t n) noexcept {
    if (n < 16) return simd::scalar::dot_n(x, y, n);
    return simd::active().dot_n(x, y, n);
}

/// y += alpha * x over n entries. Elementwise, so the short-input inline
/// path is bit-identical to every backend (and to the naive loop).
inline void axpy_n(double alpha, const double* x, double* y, std::size_t n) noexcept {
    if (n < 16) {
        simd::scalar::axpy_n(alpha, x, y, n);
        return;
    }
    simd::active().axpy_n(alpha, x, y, n);
}

/// <x, y>
double dot(const Vector& x, const Vector& y);

/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);

/// out = x - y, written into an existing buffer (resized to match).
void sub_into(const Vector& x, const Vector& y, Vector& out);

/// x *= alpha
void scale(Vector& x, double alpha) noexcept;

/// Returns x + y.
Vector add(const Vector& x, const Vector& y);

/// Returns x - y.
Vector sub(const Vector& x, const Vector& y);

/// Returns alpha * x.
Vector scaled(const Vector& x, double alpha);

/// Elementwise product.
Vector hadamard(const Vector& x, const Vector& y);

/// sum_i x_i
double sum(const Vector& x) noexcept;

/// Euclidean norm, computed with scaling to avoid overflow.
double norm2(const Vector& x) noexcept;

/// max_i |x_i|; 0 for the empty vector.
double norm_inf(const Vector& x) noexcept;

/// ||x - y||_2
double distance2(const Vector& x, const Vector& y);

/// Vector of `n` zeros / constant `value`.
Vector zeros(std::size_t n);
Vector constant(std::size_t n, double value);

/// e_i of dimension n.
Vector unit(std::size_t n, std::size_t i);

/// Index of the largest element; throws on empty input.
std::size_t argmax(const Vector& x);

/// Numerically stable log(sum_i exp(x_i)); -inf for the empty vector.
double log_sum_exp(const Vector& x) noexcept;

/// Normalizes a vector of log-weights into probabilities, in place.
void softmax_inplace(Vector& log_weights);

/// Projects x onto the probability simplex {p : p >= 0, sum p = 1}
/// (Duchi et al. 2008 algorithm, O(n log n)).
Vector project_to_simplex(const Vector& x);

}  // namespace drel::linalg
