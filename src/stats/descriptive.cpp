#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace drel::stats {

double mean(const linalg::Vector& x) {
    if (x.empty()) throw std::invalid_argument("mean: empty input");
    return linalg::sum(x) / static_cast<double>(x.size());
}

double variance(const linalg::Vector& x) {
    if (x.empty()) throw std::invalid_argument("variance: empty input");
    if (x.size() < 2) return 0.0;
    const double m = mean(x);
    double acc = 0.0;
    for (const double v : x) acc += (v - m) * (v - m);
    return acc / static_cast<double>(x.size() - 1);
}

double stddev(const linalg::Vector& x) { return std::sqrt(variance(x)); }

double quantile(linalg::Vector x, double q) {
    if (x.empty()) throw std::invalid_argument("quantile: empty input");
    if (!(q >= 0.0) || !(q <= 1.0)) throw std::invalid_argument("quantile: q must be in [0,1]");
    std::sort(x.begin(), x.end());
    const double pos = q * static_cast<double>(x.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, x.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return x[lo] * (1.0 - frac) + x[hi] * frac;
}

namespace {

/// 0-based index of the ceil(q * n)-th value; n > 0.
std::size_t nearest_rank_index(std::size_t n, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    return std::min(index, n - 1);
}

void check_quantile_level(double q, const char* where) {
    if (!(q >= 0.0) || !(q <= 1.0)) {
        throw std::invalid_argument(std::string(where) + ": q must be in [0,1]");
    }
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    check_quantile_level(q, "nearest_rank");
    return sorted[nearest_rank_index(sorted.size(), q)];
}

std::vector<double> nearest_ranks(std::vector<double>& values, const std::vector<double>& qs) {
    std::vector<double> out(qs.size(), 0.0);
    // Invariant: every value before `unplaced` is <= every value from it on,
    // so each larger rank is selected within the shrinking tail only.
    auto unplaced = values.begin();
    for (std::size_t i = 0; i < qs.size(); ++i) {
        check_quantile_level(qs[i], "nearest_ranks");
        if (i > 0 && qs[i] < qs[i - 1]) {
            throw std::invalid_argument("nearest_ranks: qs must be non-decreasing");
        }
        if (values.empty()) continue;
        const auto nth = values.begin() +
                         static_cast<std::ptrdiff_t>(nearest_rank_index(values.size(), qs[i]));
        if (nth >= unplaced) {
            if (nth + 1 == values.end()) {
                std::iter_swap(nth, std::max_element(unplaced, values.end()));
            } else {
                std::nth_element(unplaced, nth, values.end());
            }
            unplaced = nth + 1;
        }
        out[i] = *nth;
    }
    return out;
}

double median(linalg::Vector x) { return quantile(std::move(x), 0.5); }

linalg::Vector mean_rows(const std::vector<linalg::Vector>& rows) {
    if (rows.empty()) throw std::invalid_argument("mean_rows: empty input");
    linalg::Vector out(rows.front().size(), 0.0);
    for (const auto& r : rows) linalg::axpy(1.0, r, out);
    linalg::scale(out, 1.0 / static_cast<double>(rows.size()));
    return out;
}

linalg::Matrix covariance_rows(const std::vector<linalg::Vector>& rows) {
    if (rows.size() < 2) throw std::invalid_argument("covariance_rows: need at least 2 rows");
    const linalg::Vector m = mean_rows(rows);
    const std::size_t d = m.size();
    linalg::Matrix cov(d, d);
    for (const auto& r : rows) {
        cov.add_outer(1.0, linalg::sub(r, m));
    }
    cov *= 1.0 / static_cast<double>(rows.size() - 1);
    return cov;
}

void RunningStats::push(double x) noexcept {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace drel::stats
