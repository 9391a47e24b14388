#include "replay.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "encode/bitplane.h"
#include "harness.h"
#include "lossless/codec.h"
#include "models/features.h"
#include "progressive/padding.h"
#include "util/parallel.h"
#include "util/retry.h"
#include "util/stats.h"

namespace perfbench {

using mgardp::Array3Dd;
using mgardp::Result;
using mgardp::RetrievalPlan;
using mgardp::Status;

namespace {

double ArrayBytes(const mgardp::Dims3& dims) {
  return static_cast<double>(dims.size() * sizeof(double));
}

}  // namespace

Result<mgardp::RefactoredField> ReplayRefactor(
    Array3Dd data, const mgardp::RefactorOptions& options,
    std::vector<std::vector<double>>* levels_out) {
  const mgardp::Dims3 original_dims = data.dims();
  {
    LayerSpan span("progressive.pad_crop");
    const mgardp::Dims3 padded_dims = mgardp::NextValidDims(original_dims);
    if (!(padded_dims == original_dims)) {
      MGARDP_ASSIGN_OR_RETURN(data, mgardp::PadToDims(data, padded_dims));
    }
  }
  mgardp::HierarchyOptions hopts;
  hopts.target_steps = options.target_steps;
  MGARDP_ASSIGN_OR_RETURN(mgardp::GridHierarchy hierarchy,
                          mgardp::GridHierarchy::Create(data.dims(), hopts));

  mgardp::RefactoredField field;
  field.hierarchy = hierarchy;
  field.original_dims = original_dims;
  field.num_planes = options.num_planes;
  field.use_correction = options.use_correction;
  {
    LayerSpan span("progressive.summarize");
    field.data_summary = mgardp::Summarize(data.vector());
  }

  mgardp::DecomposeOptions dopts;
  dopts.use_correction = options.use_correction;
  mgardp::Decomposer decomposer(hierarchy, dopts);
  const double array_bytes = ArrayBytes(data.dims());
  {
    LayerSpan span("decompose.decompose");
    MGARDP_RETURN_NOT_OK(decomposer.Decompose(&data));
  }
  Count("decompose.decompose.bytes", array_bytes);
  std::vector<std::vector<double>> levels;
  {
    LayerSpan span("decompose.extract");
    mgardp::Interleaver interleaver(hierarchy);
    levels = interleaver.Extract(data);
  }
  Count("decompose.extract.bytes", array_bytes);

  mgardp::BitplaneEncoder encoder(options.num_planes);
  const int L = hierarchy.num_levels();
  field.level_exponents.resize(L);
  field.level_errors.resize(L);
  field.plane_sizes.resize(L);
  field.level_sketches.resize(L);
  std::vector<mgardp::BitplaneSet> sets(L);
  for (int l = 0; l < L; ++l) {
    {
      LayerSpan span("encode.encode");
      MGARDP_ASSIGN_OR_RETURN(sets[l],
                              encoder.Encode(levels[l], &field.level_errors[l]));
    }
    Count("encode.encode.bytes",
          static_cast<double>(levels[l].size() * sizeof(double)));
    field.level_exponents[l] = sets[l].exponent;
    LayerSpan span("progressive.sketch");
    field.level_sketches[l] = mgardp::AbsQuantileSketch(
        levels[l], static_cast<std::size_t>(options.sketch_bins));
  }
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    first_plane[l + 1] = first_plane[l] + sets[l].planes.size();
  }
  std::vector<std::string> compressed(first_plane[L]);
  {
    LayerSpan span("lossless.compress");
    Status compress_status;
    std::mutex status_mu;
    mgardp::ParallelFor(
        0, first_plane[L], 1, [&](std::size_t lo, std::size_t hi) {
          int l = 0;
          for (std::size_t t = lo; t < hi; ++t) {
            while (t >= first_plane[l + 1]) {
              ++l;
            }
            Result<std::string> blob = mgardp::lossless::CompressWith(
                sets[l].planes[t - first_plane[l]], options.codec);
            if (blob.ok()) {
              compressed[t] = std::move(blob).value();
            } else {
              std::lock_guard<std::mutex> lock(status_mu);
              compress_status = blob.status();
            }
          }
        });
    MGARDP_RETURN_NOT_OK(compress_status);
  }
  double raw_bytes = 0.0;
  double packed_bytes = 0.0;
  for (int l = 0; l < L; ++l) {
    raw_bytes += static_cast<double>(sets[l].planes.size() *
                                     sets[l].PlaneBytes());
  }
  for (const std::string& blob : compressed) {
    packed_bytes += static_cast<double>(blob.size());
  }
  Count("lossless.compress.bytes", raw_bytes);
  Count("lossless.compressed_bytes", packed_bytes);
  {
    LayerSpan span("storage.put");
    for (int l = 0; l < L; ++l) {
      field.plane_sizes[l].resize(sets[l].planes.size());
      for (int p = 0; p < static_cast<int>(sets[l].planes.size()); ++p) {
        std::string& blob = compressed[first_plane[l] + p];
        field.plane_sizes[l][p] = blob.size();
        field.segments.Put(l, p, std::move(blob));
      }
    }
  }
  Count("storage.put.bytes", packed_bytes);
  if (levels_out != nullptr) {
    *levels_out = std::move(levels);
  }
  return field;
}

void ProbeSliceOnly(const std::vector<std::vector<double>>& levels,
                    int num_planes) {
  mgardp::BitplaneEncoder encoder(num_planes);
  for (const std::vector<double>& level : levels) {
    LayerSpan span("encode.slice_only");
    Result<mgardp::BitplaneSet> set = encoder.Encode(level, nullptr);
    (void)set;
  }
  for (const std::vector<double>& level : levels) {
    Count("encode.slice_only.bytes",
          static_cast<double>(level.size() * sizeof(double)));
  }
}

Result<Array3Dd> ReplayReconstruct(const mgardp::RefactoredField& field,
                                   const SegmentReader& get,
                                   const std::vector<int>& prefix) {
  const int L = field.num_levels();
  if (static_cast<int>(prefix.size()) != L) {
    return Status::Invalid("prefix size does not match level count");
  }
  mgardp::BitplaneEncoder encoder(field.num_planes);
  std::vector<int> plane_counts(L);
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    plane_counts[l] = std::clamp(prefix[l], 0, field.num_planes);
    first_plane[l + 1] = first_plane[l] + plane_counts[l];
  }
  std::vector<std::string> compressed(first_plane[L]);
  double fetched_bytes = 0.0;
  {
    LayerSpan span("storage.get");
    for (int l = 0; l < L; ++l) {
      for (int p = 0; p < plane_counts[l]; ++p) {
        MGARDP_ASSIGN_OR_RETURN(compressed[first_plane[l] + p], get(l, p));
        fetched_bytes +=
            static_cast<double>(compressed[first_plane[l] + p].size());
      }
    }
  }
  Count("storage.get.bytes", fetched_bytes);
  std::vector<std::string> payloads(first_plane[L]);
  {
    LayerSpan span("lossless.decompress");
    std::vector<Status> decode_status(first_plane[L]);
    mgardp::ParallelFor(
        0, first_plane[L], 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            Result<std::string> payload =
                mgardp::lossless::Decompress(compressed[t]);
            if (payload.ok()) {
              payloads[t] = std::move(payload).value();
            } else {
              decode_status[t] = payload.status();
            }
          }
        });
    for (const Status& st : decode_status) {
      MGARDP_RETURN_NOT_OK(st);
    }
  }
  double raw_bytes = 0.0;
  for (const std::string& payload : payloads) {
    raw_bytes += static_cast<double>(payload.size());
  }
  Count("lossless.decompress.bytes", raw_bytes);
  std::vector<std::vector<double>> levels(L);
  {
    LayerSpan span("encode.decode");
    for (int l = 0; l < L; ++l) {
      mgardp::BitplaneSet set;
      set.num_planes = field.num_planes;
      set.exponent = field.level_exponents[l];
      set.count = field.hierarchy.LevelSize(l);
      set.planes.assign(payloads.begin() + first_plane[l],
                        payloads.begin() + first_plane[l + 1]);
      MGARDP_ASSIGN_OR_RETURN(levels[l], encoder.Decode(set, plane_counts[l]));
    }
  }
  Count("encode.planes_decoded", static_cast<double>(first_plane[L]));
  Count("encode.decode.bytes",
        static_cast<double>(field.hierarchy.dims().size() * sizeof(double)));
  const double array_bytes = ArrayBytes(field.hierarchy.dims());
  Array3Dd data(field.hierarchy.dims());
  {
    LayerSpan span("decompose.deposit");
    mgardp::Interleaver interleaver(field.hierarchy);
    MGARDP_RETURN_NOT_OK(interleaver.Deposit(levels, &data));
  }
  Count("decompose.deposit.bytes", array_bytes);
  {
    LayerSpan span("decompose.recompose");
    mgardp::DecomposeOptions dopts;
    dopts.use_correction = field.use_correction;
    mgardp::Decomposer decomposer(field.hierarchy, dopts);
    MGARDP_RETURN_NOT_OK(decomposer.Recompose(&data));
  }
  Count("decompose.recompose.bytes", array_bytes);
  if (field.original_dims.size() > 0 &&
      !(field.original_dims == field.hierarchy.dims())) {
    LayerSpan span("progressive.pad_crop");
    return mgardp::CropToDims(data, field.original_dims);
  }
  return data;
}

namespace {

SegmentReader BackendReader(mgardp::StorageBackend* backend) {
  return [backend](int l, int p) { return backend->Get(l, p); };
}

// The body of PlanHybrid, with the D-MGARD prediction in its own span.
Result<RetrievalPlan> ReplayPlanHybrid(const mgardp::RefactoredField& field,
                                       double error_bound,
                                       const mgardp::DMgardModel& dmgard,
                                       const mgardp::ErrorEstimator& estimator) {
  if (!(error_bound > 0.0)) {
    return Status::Invalid("error_bound must be positive");
  }
  Result<std::vector<int>> predicted = Status::Internal("unset");
  {
    LayerSpan span("models.dmgard_predict");
    predicted = dmgard.Predict(mgardp::ExtractDataFeatures(field.data_summary),
                               field.level_sketches, error_bound);
  }
  Count("models.forward_passes", dmgard.num_levels());
  MGARDP_ASSIGN_OR_RETURN(std::vector<int> prefix, std::move(predicted));
  if (static_cast<int>(prefix.size()) != field.num_levels()) {
    return Status::Invalid("D-MGARD level count does not match the field");
  }
  mgardp::SizeInterpreter sizes = mgardp::MakeSizeInterpreter(field);
  mgardp::Reconstructor verifier(&estimator);
  double est = estimator.Estimate(field, prefix);
  if (est > error_bound) {
    return verifier.PlanRefinement(field, prefix, error_bound);
  }
  bool trimmed = true;
  while (trimmed) {
    trimmed = false;
    int best_level = -1;
    std::size_t best_bytes = 0;
    double best_est = est;
    for (int l = 0; l < field.num_levels(); ++l) {
      if (prefix[l] <= 0) {
        continue;
      }
      std::vector<int> candidate = prefix;
      --candidate[l];
      const double cand_est = estimator.Estimate(field, candidate);
      if (cand_est > error_bound) {
        continue;
      }
      const std::size_t bytes = sizes.PlaneSize(l, candidate[l]);
      if (best_level < 0 || bytes > best_bytes) {
        best_level = l;
        best_bytes = bytes;
        best_est = cand_est;
      }
    }
    if (best_level >= 0) {
      --prefix[best_level];
      est = best_est;
      trimmed = true;
    }
  }
  RetrievalPlan plan;
  plan.prefix = std::move(prefix);
  plan.estimated_error = est;
  plan.total_bytes = sizes.TotalBytes(plan.prefix);
  return plan;
}

void ReplayAudit(const mgardp::RefactoredField& field, const std::string& model,
                 double error_bound, const RetrievalPlan& plan,
                 const Array3Dd& data) {
  LayerSpan span("obs.audit");
  mgardp::AuditRetrieval(field, model, error_bound, plan, nullptr, &data);
}

}  // namespace

Result<Array3Dd> ReplayRetrieve(const mgardp::RefactoredField& field,
                                double error_bound,
                                const mgardp::ErrorEstimator& estimator,
                                mgardp::StorageBackend* backend,
                                RetrievalPlan* plan_out) {
  Result<RetrievalPlan> planned = Status::Internal("unset");
  {
    LayerSpan span("progressive.plan");
    planned = mgardp::Reconstructor(&estimator).Plan(field, error_bound);
  }
  MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan, std::move(planned));
  MGARDP_ASSIGN_OR_RETURN(
      Array3Dd data, ReplayReconstruct(field, BackendReader(backend), plan.prefix));
  ReplayAudit(field, mgardp::AuditModelId(estimator.name()), error_bound, plan,
              data);
  *plan_out = std::move(plan);
  return data;
}

Result<Array3Dd> ReplayHybridRetrieve(const mgardp::RefactoredField& field,
                                      double error_bound,
                                      const mgardp::DMgardModel& dmgard,
                                      const mgardp::ErrorEstimator& estimator,
                                      mgardp::StorageBackend* backend,
                                      RetrievalPlan* plan_out) {
  Result<RetrievalPlan> planned = Status::Internal("unset");
  {
    LayerSpan span("progressive.plan");
    planned = ReplayPlanHybrid(field, error_bound, dmgard, estimator);
  }
  MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan, std::move(planned));
  MGARDP_ASSIGN_OR_RETURN(
      Array3Dd data, ReplayReconstruct(field, BackendReader(backend), plan.prefix));
  ReplayAudit(field, "hybrid", error_bound, plan, data);
  *plan_out = std::move(plan);
  return data;
}

ReplaySession::ReplaySession(std::string field_id,
                             const mgardp::RefactoredField* field,
                             mgardp::StorageBackend* backend,
                             const mgardp::ErrorEstimator* estimator,
                             mgardp::SegmentCache* cache)
    : field_id_(std::move(field_id)),
      field_(field),
      backend_(backend),
      estimator_(estimator),
      cache_(cache),
      have_(field->num_levels(), 0),
      estimate_(std::numeric_limits<double>::infinity()) {}

Result<const Array3Dd*> ReplaySession::Refine(double error_bound) {
  mgardp::SizeInterpreter sizes = mgardp::MakeSizeInterpreter(*field_);
  if (data_.has_value() && estimate_ <= error_bound) {
    Count("service.reused_bytes", static_cast<double>(sizes.TotalBytes(have_)));
    return &*data_;
  }
  Result<RetrievalPlan> planned = Status::Internal("unset");
  {
    LayerSpan span("progressive.plan");
    planned = mgardp::Reconstructor(estimator_).PlanRefinement(
        *field_, have_, error_bound);
  }
  MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan, std::move(planned));
  Count("service.reused_bytes", static_cast<double>(sizes.TotalBytes(have_)));

  mgardp::RetryPolicy retry;
  double put_bytes = 0.0;
  for (int l = 0; l < field_->num_levels(); ++l) {
    for (int p = have_[l]; p < plan.prefix[l]; ++p) {
      const std::uint64_t salt =
          static_cast<std::uint64_t>(l) * 4096u + static_cast<std::uint64_t>(p);
      auto fetch = [&]() -> Result<std::string> {
        return retry.Run([&] { return backend_->Get(l, p); }, salt);
      };
      mgardp::SegmentCache::Source source =
          mgardp::SegmentCache::Source::kFetched;
      Result<std::string> payload = Status::Internal("unset");
      {
        LayerSpan span("service.cache");
        payload = cache_->GetOrFetch({field_id_, l, p}, fetch, &source);
      }
      MGARDP_RETURN_NOT_OK(payload.status());
      Count("service.cache_lookups", 1);
      if (source != mgardp::SegmentCache::Source::kFetched) {
        Count("service.cache_hits", 1);
      }
      put_bytes += static_cast<double>(payload.value().size());
      LayerSpan span("storage.put");
      local_.Put(l, p, std::move(payload).value());
      have_[l] = p + 1;
    }
  }
  Count("storage.put.bytes", put_bytes);
  const mgardp::SegmentStore& local = local_;
  MGARDP_ASSIGN_OR_RETURN(
      Array3Dd data,
      ReplayReconstruct(*field_,
                        [&local](int l, int p) { return local.Get(l, p); },
                        have_));
  data_ = std::move(data);
  estimate_ = plan.estimated_error;
  RetrievalPlan audited;
  audited.prefix = have_;
  audited.total_bytes = sizes.TotalBytes(have_);
  audited.estimated_error = estimate_;
  ReplayAudit(*field_, mgardp::AuditModelId(estimator_->name()), error_bound,
              audited, *data_);
  return &*data_;
}

bool SameArray(const Array3Dd& a, const Array3Dd& b, std::string* why) {
  if (!(a.dims() == b.dims())) {
    *why = "dims differ: " + a.dims().ToString() + " vs " + b.dims().ToString();
    return false;
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    *why = "reconstructed arrays differ";
    return false;
  }
  return true;
}

bool SameRefactoredField(const mgardp::RefactoredField& a,
                         const mgardp::RefactoredField& b, std::string* why) {
  if (a.plane_sizes != b.plane_sizes) {
    *why = "plane_sizes differ";
    return false;
  }
  if (a.level_exponents != b.level_exponents) {
    *why = "level exponents differ";
    return false;
  }
  for (std::size_t l = 0; l < a.level_errors.size(); ++l) {
    if (a.level_errors[l].max_abs != b.level_errors[l].max_abs ||
        a.level_errors[l].mse != b.level_errors[l].mse) {
      *why = "error matrix of level " + std::to_string(l) + " differs";
      return false;
    }
  }
  if (a.level_sketches != b.level_sketches) {
    *why = "level sketches differ";
    return false;
  }
  if (a.segments.Keys() != b.segments.Keys()) {
    *why = "segment keys differ";
    return false;
  }
  for (const auto& [l, p] : a.segments.Keys()) {
    Result<std::string> x = a.segments.Get(l, p);
    Result<std::string> y = b.segments.Get(l, p);
    if (!x.ok() || !y.ok() || x.value() != y.value()) {
      *why = "plane payload (" + std::to_string(l) + ", " +
             std::to_string(p) + ") differs";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
