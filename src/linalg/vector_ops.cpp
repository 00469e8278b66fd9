#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/simd.hpp"

namespace drel::linalg {
namespace {

void check_same_size(const Vector& x, const Vector& y, const char* op) {
    if (x.size() != y.size()) {
        throw std::invalid_argument(std::string(op) + ": dimension mismatch " +
                                    std::to_string(x.size()) + " vs " + std::to_string(y.size()));
    }
}

}  // namespace

double dot(const Vector& x, const Vector& y) {
    check_same_size(x, y, "dot");
    return dot_n(x.data(), y.data(), x.size());
}

void axpy(double alpha, const Vector& x, Vector& y) {
    check_same_size(x, y, "axpy");
    axpy_n(alpha, x.data(), y.data(), x.size());
}

void sub_into(const Vector& x, const Vector& y, Vector& out) {
    check_same_size(x, y, "sub_into");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
}

void scale(Vector& x, double alpha) noexcept {
    for (double& v : x) v *= alpha;
}

Vector add(const Vector& x, const Vector& y) {
    check_same_size(x, y, "add");
    Vector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
    return out;
}

Vector sub(const Vector& x, const Vector& y) {
    check_same_size(x, y, "sub");
    Vector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
    return out;
}

Vector scaled(const Vector& x, double alpha) {
    Vector out(x);
    scale(out, alpha);
    return out;
}

Vector hadamard(const Vector& x, const Vector& y) {
    check_same_size(x, y, "hadamard");
    Vector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
    return out;
}

double sum(const Vector& x) noexcept { return std::accumulate(x.begin(), x.end(), 0.0); }

double norm2(const Vector& x) noexcept {
    // Scaled accumulation avoids overflow for huge components.
    double scale_factor = 0.0;
    double ssq = 1.0;
    for (const double v : x) {
        if (v == 0.0) continue;
        const double a = std::fabs(v);
        if (scale_factor < a) {
            ssq = 1.0 + ssq * (scale_factor / a) * (scale_factor / a);
            scale_factor = a;
        } else {
            ssq += (a / scale_factor) * (a / scale_factor);
        }
    }
    return scale_factor * std::sqrt(ssq);
}

double norm_inf(const Vector& x) noexcept {
    double acc = 0.0;
    for (const double v : x) acc = std::max(acc, std::fabs(v));
    return acc;
}

double distance2(const Vector& x, const Vector& y) {
    check_same_size(x, y, "distance2");
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - y[i];
        acc += d * d;
    }
    return std::sqrt(acc);
}

Vector zeros(std::size_t n) { return Vector(n, 0.0); }

Vector constant(std::size_t n, double value) { return Vector(n, value); }

Vector unit(std::size_t n, std::size_t i) {
    if (i >= n) throw std::out_of_range("unit: index out of range");
    Vector out(n, 0.0);
    out[i] = 1.0;
    return out;
}

std::size_t argmax(const Vector& x) {
    if (x.empty()) throw std::invalid_argument("argmax: empty vector");
    return static_cast<std::size_t>(std::max_element(x.begin(), x.end()) - x.begin());
}

double log_sum_exp(const Vector& x) noexcept {
    if (x.empty()) return -std::numeric_limits<double>::infinity();
    const double m = *std::max_element(x.begin(), x.end());
    if (!std::isfinite(m)) return m;  // all -inf, or a +inf dominates
    double acc = 0.0;
    for (const double v : x) acc += std::exp(v - m);
    return m + std::log(acc);
}

void softmax_inplace(Vector& log_weights) {
    const double lse = log_sum_exp(log_weights);
    for (double& v : log_weights) v = std::exp(v - lse);
}

Vector project_to_simplex(const Vector& x) {
    if (x.empty()) throw std::invalid_argument("project_to_simplex: empty vector");
    Vector sorted(x);
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    double cumulative = 0.0;
    double theta = 0.0;
    std::size_t support = 0;
    for (std::size_t j = 0; j < sorted.size(); ++j) {
        cumulative += sorted[j];
        const double candidate = (cumulative - 1.0) / static_cast<double>(j + 1);
        if (sorted[j] - candidate > 0.0) {
            theta = candidate;
            support = j + 1;
        }
    }
    (void)support;
    Vector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::max(0.0, x[i] - theta);
    return out;
}

}  // namespace drel::linalg
