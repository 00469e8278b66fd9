// Streaming (online) variational inference for the DP mixture over
// mergeable per-upload sufficient statistics.
//
// The batch paths (dpmm_gibbs.hpp, dpmm_variational.hpp) refit from the
// full upload history every round; at production scale the cloud must
// ingest uploads incrementally. StreamingVb keeps the truncated
// stick-breaking model of dpmm_variational.hpp but splits inference into
// two halves with very different contracts:
//
//   accumulate(theta, stats)  — score one upload against a FROZEN anchor
//                               posterior and fold its responsibilities
//                               into a StreamingSuffStats. Pure function of
//                               (theta, anchor): any shard may compute it.
//   apply(stats) / merge      — integer addition of fixed-point partials.
//
// The merge contract. StreamingSuffStats stores responsibilities and
// responsibility-weighted sums as FIXED-POINT int64 (scales kCountScale,
// kSumScale), quantized once at accumulate time. Integer addition is
// exactly associative and commutative, so any partition of an upload set
// into per-shard partials, folded in any tree shape or order, produces
// bit-identical totals. (Double accumulators would not: FP
// addition is order-sensitive, and the fleet goldens pin bit-identity
// across 1/2/4/8 threads and 1/3/8/40 shards.)
//
// The posterior is a deterministic conjugate function of the cumulative
// totals: with N_k = counts_k and s_k = sums_k decoded from fixed point,
//
//   V_k = (S0^-1 + N_k Sw^-1)^-1,  m_k = V_k (S0^-1 m0 + Sw^-1 s_k)
//   q(v_k) = Beta(1 + N_k, alpha + sum_{l>k} N_l)
//
// and extract_prior() ships atoms N(m_k, V_k + Sw) under the stick-mean
// weights, exactly like the batch CAVI extract.
//
// Order robustness under lag. Responsibilities depend only on the anchor,
// and the anchor moves only when refresh_anchor() is called (the lifecycle
// calls it on rebroadcast). Between refreshes, the final posterior is a
// pure function of the MULTISET of ingested uploads: a batch delayed by
// server backpressure and serviced a round late folds to the same totals —
// lag, not loss, all the way into the posterior.
//
// No RNG anywhere: the streaming path is deterministic given its inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/mixture_prior.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace drel::dp {

struct StreamingVbConfig {
    double alpha = 1.0;
    linalg::Vector base_mean;          ///< m0
    linalg::Matrix base_covariance;    ///< S0
    linalg::Matrix within_covariance;  ///< Sw
    std::size_t truncation = 12;       ///< K

    /// Pseudo-observation mass that seeds the cumulative statistics from
    /// the bootstrap prior handed to the constructor: component j starts
    /// with N_j = weight_j * prior_strength at the bootstrap atom's mean.
    /// 0 = start empty (every component at the base measure).
    double prior_strength = 16.0;
};

/// Mergeable per-upload sufficient statistics in fixed point.
struct StreamingSuffStats {
    /// Uploads folded in (exact integer count).
    std::uint64_t num_observations = 0;
    /// Per-component responsibility mass, quantized at kCountScale
    /// (phi in [0,1] -> llround(phi * kCountScale)). Size K.
    std::vector<std::int64_t> counts;
    /// Responsibility-weighted theta sums, quantized at kSumScale.
    /// Size K * dim, component-major.
    std::vector<std::int64_t> sums;

    bool empty() const noexcept { return num_observations == 0; }

    /// Associative, commutative fold: plain int64 addition per slot.
    /// Throws std::invalid_argument on mismatched shapes.
    void merge(const StreamingSuffStats& other);

    bool operator==(const StreamingSuffStats& other) const = default;
};

class StreamingVb {
 public:
    /// Fixed-point scales. counts saturate the int64 after ~2^31 uploads,
    /// sums after ~2^42 / max|theta| uploads — both far beyond any run the
    /// fleet engine can schedule (documented, not checked per-add).
    static constexpr double kCountScale = 4294967296.0;  // 2^32
    static constexpr double kSumScale = 1048576.0;       // 2^20

    /// `init_prior` seeds both the anchor and (scaled by prior_strength)
    /// the cumulative statistics, so extract_prior() before any ingest
    /// resembles the bootstrap broadcast instead of the bare base measure.
    /// Atoms beyond the truncation are dropped; slots beyond the prior's
    /// component count start at the base measure (the novel-mode escape).
    StreamingVb(StreamingVbConfig config, const MixturePrior& init_prior);

    std::size_t truncation() const noexcept { return config_.truncation; }
    std::size_t dim() const noexcept { return dim_; }

    /// Zeroed stats sized for this model (K, dim).
    StreamingSuffStats make_stats() const;

    /// Scores `theta` against the frozen anchor and folds the quantized
    /// responsibilities into `stats`. Deterministic per (theta, anchor
    /// epoch); throws std::invalid_argument on dimension mismatch or
    /// non-finite theta (the cloud's upload guard should have caught it).
    void accumulate(const linalg::Vector& theta, StreamingSuffStats& stats) const;

    /// Folds a (possibly merged) partial into the cumulative totals.
    void apply(const StreamingSuffStats& stats);

    /// Recomputes the anchor (responsibility-scoring posterior) from the
    /// cumulative totals. Call when the posterior is about to be shipped —
    /// the lifecycle refreshes on rebroadcast — so in-flight batches keep
    /// folding against the epoch they were scored under.
    void refresh_anchor();

    const StreamingSuffStats& totals() const noexcept { return totals_; }

    /// E[pi_k] under the stick posteriors implied by the cumulative totals.
    linalg::Vector expected_weights() const;

    /// Transferable prior from the cumulative totals: atoms N(m_k, V_k+Sw),
    /// stick-mean weights, components below `min_weight` dropped (base
    /// fallback if everything is) — the same surface as the batch extracts.
    MixturePrior extract_prior(double min_weight = 1e-4) const;

 private:
    struct Posterior {
        std::vector<linalg::Vector> means;  ///< m_k
        std::vector<linalg::Matrix> covs;   ///< V_k
        linalg::Vector gamma1;              ///< stick Beta params (size K-1)
        linalg::Vector gamma2;
    };

    Posterior posterior_from_totals() const;

    StreamingVbConfig config_;
    std::size_t dim_ = 0;

    linalg::Matrix base_precision_;      ///< S0^-1
    linalg::Vector base_precision_m0_;   ///< S0^-1 m0
    linalg::Matrix within_precision_;    ///< Sw^-1

    StreamingSuffStats totals_;

    // Frozen anchor: E[log pi_k] and the predictive N(m_k, V_k + Sw) per
    // component, with the Cholesky factored once per refresh.
    linalg::Vector anchor_log_pi_;
    std::vector<linalg::Vector> anchor_means_;
    std::vector<linalg::Cholesky> anchor_predictive_;
    linalg::Vector anchor_log_norm_;     ///< -0.5 (d log 2pi + log|V_k+Sw|)
};

}  // namespace drel::dp
