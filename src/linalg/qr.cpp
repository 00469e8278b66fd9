#include "linalg/qr.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace drel::linalg {

QR::QR(const Matrix& a) : q_(0, 0), r_(0, 0) {
    DREL_PROFILE_SCOPE("linalg.qr");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) throw std::invalid_argument("QR: requires rows >= cols");

    // Modified Gram-Schmidt: numerically adequate at the matrix sizes used
    // here and much simpler than accumulating Householder reflectors.
    Matrix q(m, n);
    Matrix r(n, n);
    std::vector<Vector> cols(n);
    for (std::size_t j = 0; j < n; ++j) cols[j] = a.col(j);

    for (std::size_t j = 0; j < n; ++j) {
        Vector v = cols[j];
        for (std::size_t i = 0; i < j; ++i) {
            const Vector qi = q.col(i);
            const double rij = dot(qi, v);
            r(i, j) = rij;
            axpy(-rij, qi, v);
        }
        // One re-orthogonalization pass for robustness.
        for (std::size_t i = 0; i < j; ++i) {
            const Vector qi = q.col(i);
            const double corr = dot(qi, v);
            r(i, j) += corr;
            axpy(-corr, qi, v);
        }
        const double rjj = norm2(v);
        if (rjj < 1e-12) throw std::invalid_argument("QR: matrix is rank deficient");
        r(j, j) = rjj;
        for (std::size_t i = 0; i < m; ++i) q(i, j) = v[i] / rjj;
    }
    q_ = std::move(q);
    r_ = std::move(r);
}

}  // namespace drel::linalg
