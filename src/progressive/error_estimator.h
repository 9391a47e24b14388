// Error estimators: map a per-level bit-plane prefix vector to an estimate
// of the maximum reconstruction error.
//
// The baseline TheoryEstimator implements the conservative bound of
// Equation 6, err <= C * sum_l Err[l][b_l], with per-level absolute-row-sum
// amplification constants derived from the recomposition operators. It
// deliberately neglects sign cancellation between coefficient errors --
// exactly the over-pessimism (Sec. II-C, Fig. 2) that motivates the paper.
// E-MGARD plugs in here as a LearnedConstantsEstimator (see
// models/emgard.h) implementing Equation 7, err <= sum_l C_l * Err[l][b_l].

#ifndef MGARDP_PROGRESSIVE_ERROR_ESTIMATOR_H_
#define MGARDP_PROGRESSIVE_ERROR_ESTIMATOR_H_

#include <string>
#include <vector>

#include "progressive/refactored_field.h"

namespace mgardp {

// The per-level terms of a separable estimator. An estimator is separable
// when its estimate at any prefix is
//   finish(sum_l terms[l][clamp(prefix[l])]),
// summed from 0.0 in level order, where clamp maps prefix[l] into
// [0, terms[l].size()) and finish multiplies by `scale` or takes the square
// root. The table then reproduces every Estimate bit for bit with L
// lookups, so a planner builds it once per plan instead of re-running the
// estimator (for E-MGARD, one forward pass per level and candidate) on
// every candidate prefix. An empty table means "not separable".
struct LevelTable {
  enum class Finish { kScale, kSqrt };

  std::vector<std::vector<double>> terms;  // terms[l][b]
  Finish finish = Finish::kScale;
  double scale = 1.0;

  bool empty() const { return terms.empty(); }

  // The estimate at `prefix`; prefix.size() must equal terms.size().
  double Estimate(const std::vector<int>& prefix) const;
};

class ErrorEstimator {
 public:
  virtual ~ErrorEstimator() = default;

  // Estimated maximum absolute reconstruction error when the first
  // prefix[l] planes of each level are retrieved. prefix.size() ==
  // field.num_levels(). Implementations that can fail internally (oracle
  // reconstruction, learned-model inference) report +infinity here — a
  // prefix whose accuracy cannot be established never satisfies a bound —
  // and expose the underlying error through TryEstimate.
  virtual double Estimate(const RefactoredField& field,
                          const std::vector<int>& prefix) const = 0;

  // Fallible variant: same value as Estimate, but internal failures
  // propagate as Status instead of collapsing to +infinity. The default
  // covers infallible estimators.
  virtual Result<double> TryEstimate(const RefactoredField& field,
                                     const std::vector<int>& prefix) const {
    return Estimate(field, prefix);
  }

  // The estimator's per-level term table for `field` (see LevelTable), or
  // an empty table when the estimator is not separable — the default, so
  // wrappers that do not forward it plan through Estimate.
  virtual LevelTable Table(const RefactoredField& field) const {
    (void)field;
    return {};
  }

  virtual std::string name() const = 0;
};

// The original MGARD theory-based estimator. Per-level constants
//   C_l = slack * (1 + 1.5 * d)^(K - l + 1)
// where d is the data dimensionality: each recomposition step can amplify a
// level's max coefficient error by 1 (direct placement) plus up to 3/2 per
// axis through the mass-matrix correction solve (inf-norm bound of the
// inverse), and the absolute-row-sum combination simply adds every level's
// worst case. `slack` (default 2) mirrors the additional safety margin of
// the production implementation.
class TheoryEstimator : public ErrorEstimator {
 public:
  explicit TheoryEstimator(double slack = 2.0) : slack_(slack) {}

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  LevelTable Table(const RefactoredField& field) const override;
  std::string name() const override { return "theory"; }

  // The per-level constant used for `field` (exposed for analysis benches).
  double LevelConstant(const RefactoredField& field, int level) const;

 private:
  double slack_;
};

// An L2 companion to TheoryEstimator: estimates the ROOT-MEAN-SQUARE
// reconstruction error from the per-level MSE matrices,
//   rms^2 <= sum_l A_l^2 * mse_l * (count_l / N),
// with conservative per-level amplification constants A_l of the same form
// as the max-norm estimator. Useful when the user targets PSNR rather than
// a pointwise bound; pair it with PsnrToRmsBound below.
class SNormEstimator : public ErrorEstimator {
 public:
  explicit SNormEstimator(double slack = 2.0) : slack_(slack) {}

  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  LevelTable Table(const RefactoredField& field) const override;
  std::string name() const override { return "snorm"; }

  double LevelConstant(const RefactoredField& field, int level) const;

 private:
  double slack_;
};

// The RMS bound equivalent to a PSNR target for data of value range
// `range`: psnr = 20 log10(range / rms).
double PsnrToRmsBound(double range, double psnr_db);

// The matrices' own tightest bound: err <= sum_l Err[l][b_l] with no
// amplification constant. Not safe as a planner estimator for real
// retrieval (it ignores recomposition amplification); it defines the
// oracle byte floor the audit layer normalizes against (OracleMinPlan).
class IdealMatrixEstimator : public ErrorEstimator {
 public:
  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  LevelTable Table(const RefactoredField& field) const override;
  std::string name() const override { return "ideal-matrix"; }
};

// An oracle with access to the original data: reports the *actual* max
// reconstruction error for a prefix by running the full decode+recompose.
// Not usable in production (requires the original data and is O(N) per
// query); used by benches to compute the "requested tolerance" lower bound
// of Fig. 1 and by the training-data collector.
class OracleEstimator : public ErrorEstimator {
 public:
  // `original` must outlive the estimator.
  OracleEstimator(const Array3Dd* original) : original_(original) {}

  // +infinity when the prefix cannot be reconstructed (e.g. segments are
  // corrupt); TryEstimate carries the underlying Status.
  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  Result<double> TryEstimate(const RefactoredField& field,
                             const std::vector<int>& prefix) const override;
  std::string name() const override { return "oracle"; }

 private:
  const Array3Dd* original_;
};

}  // namespace mgardp

#endif  // MGARDP_PROGRESSIVE_ERROR_ESTIMATOR_H_
