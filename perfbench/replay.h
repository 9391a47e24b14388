// Layer-by-layer replays of the library's operations for the traced run.
//
// Each replay makes the same sequence of public calls as the library routine
// it stands for, with a benchmark span (harness.h) around each call, so the
// traced run attributes every millisecond to a module of src/. The caller
// checks each replay's output is bit-identical to the library call's; a
// replay that drifts from the library fails the run instead of silently
// measuring something else.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "models/dmgard.h"
#include "progressive/error_estimator.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "service/segment_cache.h"
#include "storage/segment_store.h"
#include "storage/storage_backend.h"
#include "util/array3d.h"
#include "util/status.h"

namespace perfbench {

// Refactorer::Refactor. `levels_out`, when set, receives the extracted
// coefficient levels (input to ProbeSliceOnly).
mgardp::Result<mgardp::RefactoredField> ReplayRefactor(
    mgardp::Array3Dd data, const mgardp::RefactorOptions& options,
    std::vector<std::vector<double>>* levels_out);

// BitplaneEncoder::Encode(level, nullptr) over every level, timed as
// encode.slice_only: the encode cost without the error matrix. Runs outside
// any operation's root span, so it is not part of the summed path.
void ProbeSliceOnly(const std::vector<std::vector<double>>& levels,
                    int num_planes);

// ReconstructFromSegments, reading each compressed plane through `get`.
using SegmentReader = std::function<mgardp::Result<std::string>(int, int)>;
mgardp::Result<mgardp::Array3Dd> ReplayReconstruct(
    const mgardp::RefactoredField& field, const SegmentReader& get,
    const std::vector<int>& prefix);

// Reconstructor::Retrieve: plan with `estimator`, reconstruct through
// `backend`, audit under `model`.
mgardp::Result<mgardp::Array3Dd> ReplayRetrieve(
    const mgardp::RefactoredField& field, double error_bound,
    const mgardp::ErrorEstimator& estimator, mgardp::StorageBackend* backend,
    mgardp::RetrievalPlan* plan_out);

// PlanHybrid + Reconstructor::Reconstruct + AuditRetrieval("hybrid"), the
// way the CLI's hybrid retrieval runs them.
mgardp::Result<mgardp::Array3Dd> ReplayHybridRetrieve(
    const mgardp::RefactoredField& field, double error_bound,
    const mgardp::DMgardModel& dmgard, const mgardp::ErrorEstimator& estimator,
    mgardp::StorageBackend* backend, mgardp::RetrievalPlan* plan_out);

// RetrievalSession::Refine, with the session's state held here.
class ReplaySession {
 public:
  // All pointers must outlive the session.
  ReplaySession(std::string field_id, const mgardp::RefactoredField* field,
                mgardp::StorageBackend* backend,
                const mgardp::ErrorEstimator* estimator,
                mgardp::SegmentCache* cache);

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  mgardp::Result<const mgardp::Array3Dd*> Refine(double error_bound);
  const std::vector<int>& prefix() const { return have_; }

 private:
  const std::string field_id_;
  const mgardp::RefactoredField* field_;
  mgardp::StorageBackend* backend_;
  const mgardp::ErrorEstimator* estimator_;
  mgardp::SegmentCache* cache_;
  std::vector<int> have_;
  double estimate_;
  mgardp::SegmentStore local_;
  std::optional<mgardp::Array3Dd> data_;
};

// Bit-identity checks. On mismatch they return false and say why.
bool SameArray(const mgardp::Array3Dd& a, const mgardp::Array3Dd& b,
               std::string* why);
bool SameRefactoredField(const mgardp::RefactoredField& a,
                         const mgardp::RefactoredField& b, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
