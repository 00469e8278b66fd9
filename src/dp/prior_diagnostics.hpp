// Prior drift diagnostic: before broadcasting a freshly fitted prior, the
// cloud asks how different it is from the previous broadcast, i.e. whether
// a re-push is worth the bytes.
#pragma once

#include "dp/mixture_prior.hpp"
#include "stats/rng.hpp"

namespace drel::dp {

/// Monte-Carlo symmetric KL between two priors over the same space:
///   0.5 * E_p[log p - log q] + 0.5 * E_q[log q - log p],
/// estimated with `num_samples` draws from each. Nonnegative up to MC noise;
/// ~0 when the priors agree. The re-broadcast trigger.
double symmetric_kl_estimate(const MixturePrior& p, const MixturePrior& q,
                             std::size_t num_samples, stats::Rng& rng);

}  // namespace drel::dp
