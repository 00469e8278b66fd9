// Special functions of the DP posteriors: the Student-t predictive of the
// Normal-Inverse-Gamma sampler and the digamma of the variational updates.
#pragma once

namespace drel::stats {

/// log Student-t(x; dof, loc, scale)
double log_student_t_pdf(double x, double dof, double loc, double scale);

/// Digamma function ψ(x) (needed by variational DP updates).
double digamma(double x);

}  // namespace drel::stats
