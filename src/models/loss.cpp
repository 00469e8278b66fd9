#include "models/loss.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace drel::models {
namespace {

class LogisticLoss final : public Loss {
 public:
    LossKind kind() const noexcept override { return LossKind::kLogistic; }
    std::string name() const override { return "logistic"; }
    bool is_margin_loss() const noexcept override { return true; }

    double phi(double z) const override {
        // log(1 + e^{-z}) computed without overflow for very negative z.
        if (z < -30.0) return -z;
        return std::log1p(std::exp(-z));
    }

    double dphi(double z) const override {
        // -sigmoid(-z)
        if (z < -30.0) return -1.0;
        return -1.0 / (1.0 + std::exp(z));
    }

    double lipschitz() const noexcept override { return 1.0; }
};

class SmoothedHingeLoss final : public Loss {
 public:
    LossKind kind() const noexcept override { return LossKind::kSmoothedHinge; }
    std::string name() const override { return "smoothed-hinge"; }
    bool is_margin_loss() const noexcept override { return true; }

    double phi(double z) const override {
        if (z >= 1.0) return 0.0;
        if (z <= 0.0) return 0.5 - z;
        return 0.5 * (1.0 - z) * (1.0 - z);
    }

    double dphi(double z) const override {
        if (z >= 1.0) return 0.0;
        if (z <= 0.0) return -1.0;
        return z - 1.0;
    }

    double lipschitz() const noexcept override { return 1.0; }
};

class SquaredLoss final : public Loss {
 public:
    LossKind kind() const noexcept override { return LossKind::kSquared; }
    std::string name() const override { return "squared"; }
    bool is_margin_loss() const noexcept override { return false; }

    double phi(double r) const override { return 0.5 * r * r; }
    double dphi(double r) const override { return r; }
    double lipschitz() const noexcept override {
        return std::numeric_limits<double>::infinity();
    }
};

class HuberLoss final : public Loss {
 public:
    explicit HuberLoss(double delta) : delta_(delta) {
        if (!(delta > 0.0)) throw std::invalid_argument("HuberLoss: delta must be positive");
    }

    LossKind kind() const noexcept override { return LossKind::kHuber; }
    std::string name() const override { return "huber"; }
    bool is_margin_loss() const noexcept override { return false; }

    double phi(double r) const override {
        const double a = std::fabs(r);
        if (a <= delta_) return 0.5 * r * r;
        return delta_ * (a - 0.5 * delta_);
    }

    double dphi(double r) const override {
        if (r > delta_) return delta_;
        if (r < -delta_) return -delta_;
        return r;
    }

    double lipschitz() const noexcept override { return delta_; }

 private:
    double delta_;
};

}  // namespace

std::unique_ptr<Loss> make_logistic_loss() { return std::make_unique<LogisticLoss>(); }
std::unique_ptr<Loss> make_smoothed_hinge_loss() { return std::make_unique<SmoothedHingeLoss>(); }
std::unique_ptr<Loss> make_squared_loss() { return std::make_unique<SquaredLoss>(); }
std::unique_ptr<Loss> make_huber_loss(double delta) { return std::make_unique<HuberLoss>(delta); }

std::unique_ptr<Loss> make_loss(LossKind kind) {
    switch (kind) {
        case LossKind::kLogistic: return make_logistic_loss();
        case LossKind::kSmoothedHinge: return make_smoothed_hinge_loss();
        case LossKind::kSquared: return make_squared_loss();
        case LossKind::kHuber: return make_huber_loss();
    }
    throw std::invalid_argument("make_loss: unknown loss kind");
}

}  // namespace drel::models
