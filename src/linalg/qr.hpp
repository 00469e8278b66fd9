// Householder QR factorization.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace drel::linalg {

class QR {
 public:
    /// Factors A (m x n, m >= n) as Q R with Q m x n orthonormal columns and
    /// R n x n upper triangular. Throws if m < n or A is rank deficient to
    /// working precision.
    explicit QR(const Matrix& a);

    const Matrix& q() const noexcept { return q_; }
    const Matrix& r() const noexcept { return r_; }

 private:
    Matrix q_;
    Matrix r_;
};

}  // namespace drel::linalg
