#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"

namespace drel::linalg {
namespace {

// -------------------------------------------------------------- vector ops

TEST(VectorOps, DotAndNorms) {
    const Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
    EXPECT_DOUBLE_EQ(norm2(x), 5.0);
    EXPECT_DOUBLE_EQ(norm_inf(x), 4.0);
}

TEST(VectorOps, DotRejectsMismatch) {
    EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, Norm2AvoidsOverflow) {
    const Vector huge{1e200, 1e200};
    EXPECT_NEAR(norm2(huge) / 1e200, std::sqrt(2.0), 1e-12);
}

TEST(VectorOps, AxpyAndArithmetic) {
    Vector y{1.0, 1.0};
    axpy(2.0, {1.0, -1.0}, y);
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
    const Vector s = add({1.0, 2.0}, {3.0, 4.0});
    EXPECT_DOUBLE_EQ(s[0], 4.0);
    const Vector d = sub({1.0, 2.0}, {3.0, 4.0});
    EXPECT_DOUBLE_EQ(d[1], -2.0);
    const Vector h = hadamard({2.0, 3.0}, {4.0, 5.0});
    EXPECT_DOUBLE_EQ(h[0], 8.0);
    EXPECT_DOUBLE_EQ(h[1], 15.0);
}

TEST(VectorOps, LogSumExpStable) {
    // Huge values must not overflow.
    EXPECT_NEAR(log_sum_exp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
    // Tiny values must not underflow to -inf.
    EXPECT_NEAR(log_sum_exp({-1000.0, -1000.0}), -1000.0 + std::log(2.0), 1e-9);
    EXPECT_TRUE(std::isinf(log_sum_exp({})));
}

TEST(VectorOps, SoftmaxSumsToOne) {
    Vector lw{1.0, 2.0, 3.0};
    softmax_inplace(lw);
    EXPECT_NEAR(sum(lw), 1.0, 1e-12);
    EXPECT_GT(lw[2], lw[1]);
    EXPECT_GT(lw[1], lw[0]);
}

TEST(VectorOps, ArgmaxAndUnit) {
    EXPECT_EQ(argmax({0.1, 5.0, 2.0}), 1u);
    EXPECT_THROW(argmax({}), std::invalid_argument);
    const Vector e = unit(3, 1);
    EXPECT_DOUBLE_EQ(e[1], 1.0);
    EXPECT_DOUBLE_EQ(e[0] + e[2], 0.0);
    EXPECT_THROW(unit(3, 3), std::out_of_range);
}

TEST(VectorOps, SimplexProjectionIdempotentOnSimplex) {
    const Vector p{0.2, 0.3, 0.5};
    const Vector q = project_to_simplex(p);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(q[i], p[i], 1e-12);
}

TEST(VectorOps, SimplexProjectionProducesValidPoint) {
    const Vector q = project_to_simplex({5.0, -3.0, 0.4});
    EXPECT_NEAR(sum(q), 1.0, 1e-12);
    for (const double v : q) EXPECT_GE(v, 0.0);
    // The large coordinate should dominate.
    EXPECT_GT(q[0], 0.9);
}

// ------------------------------------------------------------------ matrix

TEST(Matrix, ConstructionAndAccess) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(Matrix(2, 2, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, MatvecAgainstHandComputed) {
    const Matrix a(2, 2, {1.0, 2.0, 3.0, 4.0});
    const Vector v = a.matvec({1.0, 1.0});
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 7.0);
    const Vector vt = a.matvec_transposed({1.0, 1.0});
    EXPECT_DOUBLE_EQ(vt[0], 4.0);
    EXPECT_DOUBLE_EQ(vt[1], 6.0);
}

TEST(Matrix, MatmulMatchesIdentity) {
    const Matrix a(2, 2, {1.0, 2.0, 3.0, 4.0});
    const Matrix prod = a.matmul(Matrix::identity(2));
    EXPECT_NEAR(Matrix::max_abs_diff(a, prod), 0.0, 1e-15);
}

TEST(Matrix, MatmulHandChecked) {
    const Matrix a(2, 3, {1.0, 0.0, 2.0, 0.0, 1.0, -1.0});
    const Matrix b(3, 1, {1.0, 2.0, 3.0});
    const Matrix c = a.matmul(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
    EXPECT_DOUBLE_EQ(c(1, 0), -1.0);
    EXPECT_THROW(b.matmul(a).matmul(b), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
    const Matrix a(2, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
    EXPECT_NEAR(Matrix::max_abs_diff(a, a.transposed().transposed()), 0.0, 0.0);
    EXPECT_DOUBLE_EQ(a.transposed()(2, 1), 6.0);
}

TEST(Matrix, OuterAndAddOuter) {
    const Matrix o = Matrix::outer({1.0, 2.0}, {3.0, 4.0});
    EXPECT_DOUBLE_EQ(o(1, 0), 6.0);
    Matrix s = Matrix::identity(2);
    s.add_outer(2.0, {1.0, 1.0});
    EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(s(0, 1), 2.0);
}

TEST(Matrix, TraceAndDiagonal) {
    Matrix m = Matrix::diagonal({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(m.trace(), 6.0);
    m.add_diagonal(0.5);
    EXPECT_DOUBLE_EQ(m.trace(), 7.5);
}

TEST(Matrix, RowColumnOps) {
    Matrix m(2, 2, {1.0, 2.0, 3.0, 4.0});
    const Vector r = m.row(1);
    EXPECT_DOUBLE_EQ(r[0], 3.0);
    const Vector c = m.col(1);
    EXPECT_DOUBLE_EQ(c[0], 2.0);
    m.set_row(0, {9.0, 8.0});
    EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
    EXPECT_THROW(m.set_row(0, {1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- cholesky

Matrix random_spd(std::size_t n, stats::Rng& rng) {
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    }
    Matrix spd = a.matmul(a.transposed());
    spd.add_diagonal(0.5);
    return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
    stats::Rng rng(1);
    const Matrix a = random_spd(5, rng);
    const Cholesky chol(a);
    const Matrix rebuilt = chol.lower().matmul(chol.lower().transposed());
    EXPECT_LT(Matrix::max_abs_diff(a, rebuilt), 1e-10);
}

TEST(Cholesky, SolveMatchesDirectCheck) {
    stats::Rng rng(2);
    const Matrix a = random_spd(6, rng);
    const Cholesky chol(a);
    const Vector b = rng.standard_normal_vector(6);
    const Vector x = chol.solve(b);
    EXPECT_LT(distance2(a.matvec(x), b), 1e-9);
}

TEST(Cholesky, LogDetMatchesDiagonalCase) {
    const Matrix d = Matrix::diagonal({2.0, 3.0, 4.0});
    const Cholesky chol(d);
    EXPECT_NEAR(chol.log_det(), std::log(24.0), 1e-12);
}

TEST(Cholesky, QuadFormMatchesExplicit) {
    stats::Rng rng(3);
    const Matrix a = random_spd(4, rng);
    const Cholesky chol(a);
    const Vector x = rng.standard_normal_vector(4);
    EXPECT_NEAR(chol.quad_form_inv(x), dot(x, chol.solve(x)), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
    Matrix bad = Matrix::identity(2);
    bad(0, 0) = -1.0;
    EXPECT_THROW(Cholesky{bad}, std::invalid_argument);
    EXPECT_FALSE(Cholesky::try_factor(bad).has_value());
}

TEST(Cholesky, JitterRescuesSemidefinite) {
    // Rank-1 matrix: singular but PSD; jitter must make it factorable.
    Matrix semidefinite = Matrix::outer({1.0, 1.0}, {1.0, 1.0});
    const Cholesky chol = Cholesky::factor_with_jitter(semidefinite);
    EXPECT_EQ(chol.dim(), 2u);
}

TEST(Cholesky, InverseTimesOriginalIsIdentity) {
    stats::Rng rng(4);
    const Matrix a = random_spd(5, rng);
    const Matrix inv = Cholesky(a).inverse();
    EXPECT_LT(Matrix::max_abs_diff(a.matmul(inv), Matrix::identity(5)), 1e-8);
}

// ---------------------------------------------------------------------- QR

TEST(QR, OrthonormalColumnsAndReconstruction) {
    stats::Rng rng(5);
    Matrix a(8, 4);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
    }
    const QR qr(a);
    const Matrix qtq = qr.q().transposed().matmul(qr.q());
    EXPECT_LT(Matrix::max_abs_diff(qtq, Matrix::identity(4)), 1e-10);
    EXPECT_LT(Matrix::max_abs_diff(qr.q().matmul(qr.r()), a), 1e-10);
}

TEST(QR, LeastSquaresRecoversPlantedSolution) {
    stats::Rng rng(6);
    Matrix a(20, 3);
    for (std::size_t r = 0; r < 20; ++r) {
        for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
    }
    const Vector truth{1.0, -2.0, 0.5};
    const Vector b = a.matvec(truth);
    const Vector x = QR(a).solve_least_squares(b);
    EXPECT_LT(distance2(x, truth), 1e-9);
}

TEST(QR, RejectsRankDeficient) {
    Matrix a(3, 2);
    a(0, 0) = 1.0;
    a(1, 0) = 2.0;
    a(2, 0) = 3.0;
    // Second column identical to first.
    a(0, 1) = 1.0;
    a(1, 1) = 2.0;
    a(2, 1) = 3.0;
    EXPECT_THROW(QR{a}, std::invalid_argument);
}

TEST(QR, RejectsWideMatrix) {
    EXPECT_THROW(QR{Matrix(2, 3, 1.0)}, std::invalid_argument);
}

// ------------------------------------------------------------ eigen (sym)

TEST(EigenSym, DiagonalMatrixEigenvaluesSorted) {
    const EigenSym es = eigen_sym(Matrix::diagonal({3.0, 1.0, 2.0}));
    EXPECT_NEAR(es.values[0], 1.0, 1e-10);
    EXPECT_NEAR(es.values[1], 2.0, 1e-10);
    EXPECT_NEAR(es.values[2], 3.0, 1e-10);
}

TEST(EigenSym, ReconstructsMatrix) {
    stats::Rng rng(7);
    const Matrix a = random_spd(5, rng);
    const EigenSym es = eigen_sym(a);
    // A = V diag(lambda) V^T
    Matrix scaled = es.vectors;
    for (std::size_t c = 0; c < 5; ++c) {
        for (std::size_t r = 0; r < 5; ++r) scaled(r, c) *= es.values[c];
    }
    const Matrix rebuilt = scaled.matmul(es.vectors.transposed());
    EXPECT_LT(Matrix::max_abs_diff(a, rebuilt), 1e-8);
}

TEST(EigenSym, SqrtPsdSquaresBack) {
    stats::Rng rng(8);
    const Matrix a = random_spd(4, rng);
    const Matrix root = sqrt_psd(a);
    EXPECT_LT(Matrix::max_abs_diff(root.matmul(root), a), 1e-8);
}

TEST(EigenSym, SqrtPsdRejectsIndefinite) {
    Matrix bad = Matrix::identity(2);
    bad(1, 1) = -2.0;
    EXPECT_THROW(sqrt_psd(bad), std::invalid_argument);
}

TEST(EigenSym, MinEigenvalueOfSpdIsPositive) {
    stats::Rng rng(9);
    EXPECT_GT(min_eigenvalue(random_spd(6, rng)), 0.0);
}

}  // namespace
}  // namespace drel::linalg
