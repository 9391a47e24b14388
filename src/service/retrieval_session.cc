#include "service/retrieval_session.h"

#include <limits>
#include <sstream>
#include <utility>

#include "obs/tracer.h"
#include "util/stats.h"

namespace mgardp {

std::string RetrievalSession::Refinement::ToString() const {
  std::ostringstream os;
  os << "refine to " << requested_bound << ": est " << estimated_error
     << (bound_met ? " (met" : " (MISSED") << (noop ? ", noop)" : ")");
  if (has_actual) {
    os << " actual " << actual_error
       << (actual_bound_met ? " (met)" : " (VIOLATED)");
  }
  os << " prefix";
  for (int p : prefix) {
    os << ' ' << p;
  }
  os << " | fetched " << planes_fetched << " planes / " << fetched_bytes
     << " B, cached " << planes_cached << " / " << cached_bytes
     << " B, reused " << planes_reused << " / " << reused_bytes << " B";
  return os.str();
}

RetrievalSession::RetrievalSession(std::string field_id,
                                   const RefactoredField* field,
                                   StorageBackend* backend,
                                   const ErrorEstimator* estimator,
                                   SegmentCache* cache,
                                   ServiceMetrics* metrics, RetryPolicy retry)
    : field_id_(std::move(field_id)),
      field_(field),
      backend_(backend),
      estimator_(estimator),
      cache_(cache),
      metrics_(metrics),
      retry_(std::move(retry)),
      have_(field->num_levels(), 0),
      estimate_(std::numeric_limits<double>::infinity()) {}

Result<const Array3Dd*> RetrievalSession::Refine(double error_bound,
                                                 Refinement* info) {
  return Refine(error_bound, retry_, info);
}

Result<const Array3Dd*> RetrievalSession::Refine(double error_bound,
                                                 const RetryPolicy& retry,
                                                 Refinement* info) {
  if (!(error_bound > 0.0)) {
    return Status::Invalid("error_bound must be positive");
  }
  MGARDP_TRACE_SPAN("session/refine", "service");
  std::lock_guard<std::mutex> lock(mu_);

  Refinement ref;
  ref.requested_bound = error_bound;

  // Loosening (or repeating) the bound: the reconstruction in hand already
  // satisfies it — no planning, no I/O.
  if (data_.has_value() && estimate_ <= error_bound) {
    ref.estimated_error = estimate_;
    ref.bound_met = true;
    ref.noop = true;
    ref.prefix = have_;
    for (std::size_t l = 0; l < have_.size(); ++l) {
      ref.planes_reused += have_[l];
    }
    ref.reused_bytes =
        MakeSizeInterpreter(*field_).TotalBytes(have_);
    if (metrics_ != nullptr) {
      metrics_->OnNoopRefinement();
    }
    if (info != nullptr) {
      *info = std::move(ref);
    }
    return &*data_;
  }

  // Pin the model version for this session's lifetime on first use; later
  // hot swaps in the registry do not affect an in-flight session.
  if (estimator_provider_ && lease_.estimator == nullptr) {
    lease_ = estimator_provider_();
  }
  const ErrorEstimator* estimator =
      lease_.estimator != nullptr ? lease_.estimator.get() : estimator_;

  Reconstructor rec(estimator);
  Result<RetrievalPlan> planned = Status::Internal("unplanned");
  {
    MGARDP_TRACE_SPAN("session/plan", "service");
    planned = rec.PlanRefinement(*field_, have_, error_bound);
  }
  MGARDP_ASSIGN_OR_RETURN(RetrievalPlan plan, std::move(planned));
  SizeInterpreter sizes = MakeSizeInterpreter(*field_);

  // Everything already in hand counts as reuse for this refinement.
  const std::vector<int> had = have_;
  for (std::size_t l = 0; l < had.size(); ++l) {
    ref.planes_reused += had[l];
    ref.reused_bytes += sizes.LevelBytes(static_cast<int>(l), had[l]);
  }

  // Fetch the delta, advancing have_ plane by plane so a failed fetch
  // never loses the progress made before it. The planes fetched are
  // counted when fetching stops, failed or not: they stay in hand, and
  // the next refinement reuses them instead of reading them again.
  auto count_fetched = [&] {
    lifetime_fetched_bytes_ += ref.fetched_bytes;
    if (metrics_ != nullptr) {
      metrics_->OnPlanesFetched(ref.planes_fetched, ref.fetched_bytes);
    }
  };
  {
    MGARDP_TRACE_SPAN("session/fetch", "service");
    for (int l = 0; l < field_->num_levels(); ++l) {
      for (int p = have_[l]; p < plan.prefix[l]; ++p) {
        const std::uint64_t salt = static_cast<std::uint64_t>(l) * 4096u +
                                   static_cast<std::uint64_t>(p);
        SegmentCache::Source source = SegmentCache::Source::kFetched;
        auto fetch = [&]() -> Result<std::string> {
          int retries = 0;
          auto r = retry.Run([&] { return backend_->Get(l, p); }, salt,
                             &retries);
          if (retries > 0 && metrics_ != nullptr) {
            metrics_->OnRetries(retries);
          }
          return r;
        };
        Result<std::string> payload =
            cache_ != nullptr
                ? cache_->GetOrFetch({field_id_, l, p}, fetch, &source)
                : fetch();
        if (!payload.ok()) {
          count_fetched();
          return payload.status();
        }
        const std::size_t n = payload.value().size();
        if (source == SegmentCache::Source::kFetched) {
          ++ref.planes_fetched;
          ref.fetched_bytes += n;
        } else {
          ++ref.planes_cached;
          ref.cached_bytes += n;
        }
        local_.Put(l, p, std::move(payload).value());
        have_[l] = p + 1;
      }
    }
  }
  count_fetched();

  MGARDP_ASSIGN_OR_RETURN(Array3Dd data,
                          ReconstructFromSegments(*field_, local_, have_));
  data_ = std::move(data);
  estimate_ = plan.estimated_error;

  ref.estimated_error = estimate_;
  ref.bound_met = estimate_ <= error_bound;
  ref.prefix = have_;
  if (truth_ != nullptr &&
      truth_->vector().size() == data_->vector().size()) {
    ref.has_actual = true;
    ref.actual_error = MaxAbsError(truth_->vector(), data_->vector());
    ref.actual_bound_met = ref.actual_error <= error_bound;
  }
  // Each non-noop refinement is one audited request; total_bytes reports
  // the full prefix in hand (what this accuracy costs), not just the delta.
  RetrievalPlan audited;
  audited.prefix = have_;
  audited.total_bytes = sizes.TotalBytes(have_);
  audited.estimated_error = estimate_;
  const std::string audit_id = !lease_.audit_model_id.empty()
                                   ? lease_.audit_model_id
                                   : AuditModelId(estimator->name());
  AuditRetrieval(*field_, audit_id, error_bound, audited, truth_, &*data_,
                 /*degraded=*/false, auditor_);
  if (metrics_ != nullptr) {
    metrics_->OnPlanesReused(ref.planes_reused + ref.planes_cached,
                             ref.reused_bytes + ref.cached_bytes);
  }
  if (info != nullptr) {
    *info = std::move(ref);
  }
  return &*data_;
}

void RetrievalSession::set_ground_truth(const Array3Dd* truth) {
  std::lock_guard<std::mutex> lock(mu_);
  truth_ = truth;
}

void RetrievalSession::set_auditor(obs::ErrorControlAuditor* auditor) {
  std::lock_guard<std::mutex> lock(mu_);
  auditor_ = auditor;
}

void RetrievalSession::set_estimator_provider(EstimatorProvider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  estimator_provider_ = std::move(provider);
}

std::vector<int> RetrievalSession::prefix() const {
  std::lock_guard<std::mutex> lock(mu_);
  return have_;
}

double RetrievalSession::estimated_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return estimate_;
}

std::size_t RetrievalSession::bytes_in_hand() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MakeSizeInterpreter(*field_).TotalBytes(have_);
}

std::size_t RetrievalSession::lifetime_fetched_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lifetime_fetched_bytes_;
}

}  // namespace mgardp
