// Per-column standardization of features/targets (zero mean, unit
// variance). Models trained on standardized inputs are serialized together
// with their scalers so inference applies the identical transform.

#ifndef MGARDP_DNN_SCALER_H_
#define MGARDP_DNN_SCALER_H_

#include <vector>

#include "dnn/matrix.h"
#include "util/io.h"
#include "util/status.h"

namespace mgardp {
namespace dnn {

class StandardScaler {
 public:
  StandardScaler() = default;

  // Learns per-column mean and standard deviation from `data`. Columns
  // with zero variance carried no information during training, so
  // Transform maps them to zero for ANY input -- otherwise a shift in such
  // a column at inference time (e.g. a different grid resolution) would
  // push the network into a region it never saw.
  void Fit(const Matrix& data);

  bool fitted() const { return !mean_.empty(); }
  std::size_t num_features() const { return mean_.size(); }

  // (x - mean) / std, column-wise. Status::Invalid when `data`'s width
  // differs from the fitted width — a mismatched feature vector would
  // otherwise silently pair values with the wrong column statistics.
  Result<Matrix> Transform(const Matrix& data) const;
  // x * std + mean; same width validation.
  Result<Matrix> InverseTransform(const Matrix& data) const;

  // Single-column helpers for target scaling; Status::Invalid when `col`
  // is outside the fitted columns.
  Result<double> TransformValue(std::size_t col, double v) const;
  Result<double> InverseTransformValue(std::size_t col, double v) const;

  void Serialize(BinaryWriter* w) const;
  Status Deserialize(BinaryReader* r);
  // Lower bound on one serialized scaler: three vector length prefixes.
  static constexpr std::size_t kMinSerializedBytes = 3 * 8;

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
  std::vector<bool> frozen_;  // columns with zero training variance
};

}  // namespace dnn
}  // namespace mgardp

#endif  // MGARDP_DNN_SCALER_H_
