// Symmetric eigendecomposition via the cyclic Jacobi method.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::linalg {

struct EigenSym {
    /// Eigenvalues in ascending order.
    Vector values;
    /// Column k of `vectors` is the eigenvector for values[k].
    Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix. The input is symmetrized
/// as (A + Aᵀ)/2 before iterating, so slight asymmetry from accumulation is
/// tolerated. Throws std::invalid_argument on non-square input.
EigenSym eigen_sym(const Matrix& a, int max_sweeps = 64);

}  // namespace drel::linalg
