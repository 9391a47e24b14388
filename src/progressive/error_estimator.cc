#include "progressive/error_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "progressive/reconstructor.h"
#include "util/logging.h"
#include "util/stats.h"

namespace mgardp {

double LevelTable::Estimate(const std::vector<int>& prefix) const {
  MGARDP_CHECK_EQ(prefix.size(), terms.size());
  double sum = 0.0;
  for (std::size_t l = 0; l < terms.size(); ++l) {
    const int b =
        std::clamp(prefix[l], 0, static_cast<int>(terms[l].size()) - 1);
    sum += terms[l][b];
  }
  return finish == Finish::kSqrt ? std::sqrt(sum) : sum * scale;
}

double TheoryEstimator::LevelConstant(const RefactoredField& field,
                                      int level) const {
  const int K = field.hierarchy.num_steps();
  const int d = field.hierarchy.dims().dimensionality();
  // One recomposition step can amplify a coefficient error by a factor of
  // up to 1 + 1.5d (direct placement plus per-axis mass-matrix correction
  // whose inverse has inf-norm <= 3/2). Level l detail passes through
  // K - l + 1 steps' worth of worst-case growth under the absolute-row-sum
  // combination -- no cancellation credited anywhere.
  const double per_step = 1.0 + 1.5 * static_cast<double>(d);
  return slack_ * std::pow(per_step, static_cast<double>(K - level + 1));
}

double TheoryEstimator::Estimate(const RefactoredField& field,
                                 const std::vector<int>& prefix) const {
  MGARDP_CHECK_EQ(prefix.size(),
                  static_cast<std::size_t>(field.num_levels()));
  double est = 0.0;
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    const int b = std::clamp(prefix[l], 0,
                             static_cast<int>(max_abs.size()) - 1);
    est += LevelConstant(field, l) * max_abs[b];
  }
  return est;
}

LevelTable TheoryEstimator::Table(const RefactoredField& field) const {
  LevelTable table;
  table.terms.resize(field.num_levels());
  for (int l = 0; l < field.num_levels(); ++l) {
    const double c = LevelConstant(field, l);
    for (double err : field.level_errors[l].max_abs) {
      table.terms[l].push_back(c * err);
    }
  }
  return table;
}

double SNormEstimator::LevelConstant(const RefactoredField& field,
                                     int level) const {
  const int K = field.hierarchy.num_steps();
  const int d = field.hierarchy.dims().dimensionality();
  // L2 amplification per recomposition step is milder than max-norm (the
  // mass solve is an L2 contraction and interpolation has norm <= 1 per
  // axis up to the mesh weights); 1 + d/2 per step is a conservative
  // engineering constant of the same flavour as the max-norm estimator's.
  const double per_step = 1.0 + 0.5 * static_cast<double>(d);
  return slack_ * std::pow(per_step, static_cast<double>(K - level + 1));
}

double SNormEstimator::Estimate(const RefactoredField& field,
                                const std::vector<int>& prefix) const {
  MGARDP_CHECK_EQ(prefix.size(),
                  static_cast<std::size_t>(field.num_levels()));
  const double total = static_cast<double>(field.hierarchy.TotalSize());
  double sum = 0.0;
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& mse = field.level_errors[l].mse;
    const int b = std::clamp(prefix[l], 0, static_cast<int>(mse.size()) - 1);
    const double a = LevelConstant(field, l);
    const double frac =
        static_cast<double>(field.hierarchy.LevelSize(l)) / total;
    sum += a * a * mse[b] * frac;
  }
  return std::sqrt(sum);
}

LevelTable SNormEstimator::Table(const RefactoredField& field) const {
  const double total = static_cast<double>(field.hierarchy.TotalSize());
  LevelTable table;
  table.finish = LevelTable::Finish::kSqrt;
  table.terms.resize(field.num_levels());
  for (int l = 0; l < field.num_levels(); ++l) {
    const double a = LevelConstant(field, l);
    const double frac =
        static_cast<double>(field.hierarchy.LevelSize(l)) / total;
    for (double mse : field.level_errors[l].mse) {
      table.terms[l].push_back(a * a * mse * frac);
    }
  }
  return table;
}

double PsnrToRmsBound(double range, double psnr_db) {
  return range / std::pow(10.0, psnr_db / 20.0);
}

double IdealMatrixEstimator::Estimate(const RefactoredField& field,
                                      const std::vector<int>& prefix) const {
  MGARDP_CHECK_EQ(prefix.size(),
                  static_cast<std::size_t>(field.num_levels()));
  double est = 0.0;
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    const int b =
        std::clamp(prefix[l], 0, static_cast<int>(max_abs.size()) - 1);
    est += max_abs[b];
  }
  return est;
}

LevelTable IdealMatrixEstimator::Table(const RefactoredField& field) const {
  LevelTable table;
  for (int l = 0; l < field.num_levels(); ++l) {
    table.terms.push_back(field.level_errors[l].max_abs);
  }
  return table;
}

Result<double> OracleEstimator::TryEstimate(
    const RefactoredField& field, const std::vector<int>& prefix) const {
  MGARDP_CHECK(original_ != nullptr);
  MGARDP_ASSIGN_OR_RETURN(Array3Dd rec, ReconstructFromPrefix(field, prefix));
  return MaxAbsError(original_->vector(), rec.vector());
}

double OracleEstimator::Estimate(const RefactoredField& field,
                                 const std::vector<int>& prefix) const {
  // An unreconstructible prefix (corrupt or missing segments) is
  // infinitely inaccurate: no planner accepts it, and callers that need
  // the cause use TryEstimate.
  auto result = TryEstimate(field, prefix);
  return result.ok() ? result.value()
                     : std::numeric_limits<double>::infinity();
}

}  // namespace mgardp
