#include "service/service_metrics.h"

#include <algorithm>
#include <cstdio>

#include "obs/audit.h"
#include "obs/prom_export.h"
#include "obs/slo.h"
#include "obs/tracer.h"

namespace mgardp {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

void AtomicPeak(std::atomic<std::uint64_t>* peak, std::uint64_t value) {
  std::uint64_t cur = peak->load(kRelaxed);
  while (value > cur && !peak->compare_exchange_weak(cur, value, kRelaxed)) {
  }
}
}  // namespace

ServiceMetrics::ServiceMetrics()
    // Candidate/incumbent byte ratios cluster around 1; 10% geometric
    // buckets over [0.01, ~2e3] match the audit ratio histograms.
    : shadow_byte_ratio_(Histogram::Options{1e-2, 1.1, 128}),
      // Latencies from microseconds to ~20 minutes at 25% resolution.
      latency_ms_(Histogram::Options{1e-3, 1.25, 96}) {}

void ServiceMetrics::OnCacheHit(std::size_t bytes) {
  cache_hits_.fetch_add(1, kRelaxed);
  cache_hit_bytes_.fetch_add(bytes, kRelaxed);
}

void ServiceMetrics::OnCacheMiss(std::size_t bytes) {
  cache_misses_.fetch_add(1, kRelaxed);
  cache_miss_bytes_.fetch_add(bytes, kRelaxed);
}

void ServiceMetrics::OnCacheEvict(std::size_t bytes) {
  cache_evictions_.fetch_add(1, kRelaxed);
  cache_evicted_bytes_.fetch_add(bytes, kRelaxed);
}

void ServiceMetrics::OnSingleFlightShared(std::size_t bytes) {
  single_flight_shared_.fetch_add(1, kRelaxed);
  single_flight_shared_bytes_.fetch_add(bytes, kRelaxed);
}

void ServiceMetrics::OnPlanesFetched(int planes, std::size_t bytes) {
  planes_fetched_.fetch_add(static_cast<std::uint64_t>(planes), kRelaxed);
  fetched_bytes_.fetch_add(bytes, kRelaxed);
}

void ServiceMetrics::OnPlanesReused(int planes, std::size_t bytes) {
  planes_reused_.fetch_add(static_cast<std::uint64_t>(planes), kRelaxed);
  reused_bytes_.fetch_add(bytes, kRelaxed);
}

void ServiceMetrics::OnNoopRefinement() {
  noop_refinements_.fetch_add(1, kRelaxed);
}

void ServiceMetrics::OnRetries(int n) {
  if (n > 0) {
    retries_total_.fetch_add(static_cast<std::uint64_t>(n), kRelaxed);
  }
}

void ServiceMetrics::OnRetrain() { retrains_total_.fetch_add(1, kRelaxed); }

void ServiceMetrics::OnModelPromoted() {
  model_promotions_.fetch_add(1, kRelaxed);
}

void ServiceMetrics::OnCandidateRejected() {
  candidate_rejections_.fetch_add(1, kRelaxed);
}

void ServiceMetrics::OnModelRolledBack() {
  model_rollbacks_.fetch_add(1, kRelaxed);
}

void ServiceMetrics::OnShadowPair(double byte_ratio) {
  shadow_pairs_.fetch_add(1, kRelaxed);
  if (byte_ratio > 0.0) {
    shadow_byte_ratio_.Record(byte_ratio);
  }
}

void ServiceMetrics::OnAdmitted(std::size_t queue_depth_now) {
  requests_admitted_.fetch_add(1, kRelaxed);
  queue_depth_.store(queue_depth_now, kRelaxed);
  AtomicPeak(&queue_depth_peak_, queue_depth_now);
}

void ServiceMetrics::OnRejected() {
  requests_rejected_.fetch_add(1, kRelaxed);
}

void ServiceMetrics::OnStarted(std::size_t batch_size,
                               std::size_t queue_depth_now) {
  requests_started_.fetch_add(batch_size, kRelaxed);
  queue_depth_.store(queue_depth_now, kRelaxed);
}

void ServiceMetrics::OnCompleted(bool ok, double latency_ms) {
  (ok ? requests_completed_ : requests_failed_).fetch_add(1, kRelaxed);
  latency_ms_.Record(latency_ms);
}

double ServiceMetrics::Snapshot::cache_hit_rate() const {
  const std::uint64_t reused = cache_hits + single_flight_shared;
  const std::uint64_t lookups = reused + cache_misses;
  return lookups == 0
             ? 0.0
             : static_cast<double>(reused) / static_cast<double>(lookups);
}

std::string ServiceMetrics::Snapshot::ToJson() const {
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"cache_hit_bytes\":%llu,\"cache_miss_bytes\":%llu,"
      "\"cache_evictions\":%llu,\"cache_evicted_bytes\":%llu,"
      "\"single_flight_shared\":%llu,\"single_flight_shared_bytes\":%llu,"
      "\"cache_hit_rate\":%.6f,"
      "\"planes_fetched\":%llu,\"planes_reused\":%llu,"
      "\"fetched_bytes\":%llu,\"reused_bytes\":%llu,"
      "\"noop_refinements\":%llu,"
      "\"retries_total\":%llu,"
      "\"retrains_total\":%llu,\"model_promotions\":%llu,"
      "\"candidate_rejections\":%llu,\"model_rollbacks\":%llu,"
      "\"shadow_pairs\":%llu,\"shadow_byte_ratio_p50\":%.6f,"
      "\"shadow_byte_ratio_p90\":%.6f,\"shadow_byte_ratio_mean\":%.6f,"
      "\"requests_admitted\":%llu,\"requests_rejected\":%llu,"
      "\"requests_started\":%llu,"
      "\"requests_completed\":%llu,\"requests_failed\":%llu,"
      "\"queue_depth\":%llu,\"queue_depth_peak\":%llu,"
      "\"latency_count\":%llu,\"latency_p50_ms\":%.6f,"
      "\"latency_p90_ms\":%.6f,\"latency_p99_ms\":%.6f,"
      "\"latency_p999_ms\":%.6f,\"latency_max_ms\":%.6f}",
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(cache_hit_bytes),
      static_cast<unsigned long long>(cache_miss_bytes),
      static_cast<unsigned long long>(cache_evictions),
      static_cast<unsigned long long>(cache_evicted_bytes),
      static_cast<unsigned long long>(single_flight_shared),
      static_cast<unsigned long long>(single_flight_shared_bytes),
      cache_hit_rate(),
      static_cast<unsigned long long>(planes_fetched),
      static_cast<unsigned long long>(planes_reused),
      static_cast<unsigned long long>(fetched_bytes),
      static_cast<unsigned long long>(reused_bytes),
      static_cast<unsigned long long>(noop_refinements),
      static_cast<unsigned long long>(retries_total),
      static_cast<unsigned long long>(retrains_total),
      static_cast<unsigned long long>(model_promotions),
      static_cast<unsigned long long>(candidate_rejections),
      static_cast<unsigned long long>(model_rollbacks),
      static_cast<unsigned long long>(shadow_pairs),
      shadow_byte_ratio_p50, shadow_byte_ratio_p90, shadow_byte_ratio_mean,
      static_cast<unsigned long long>(requests_admitted),
      static_cast<unsigned long long>(requests_rejected),
      static_cast<unsigned long long>(requests_started),
      static_cast<unsigned long long>(requests_completed),
      static_cast<unsigned long long>(requests_failed),
      static_cast<unsigned long long>(queue_depth),
      static_cast<unsigned long long>(queue_depth_peak),
      static_cast<unsigned long long>(latency_count), latency_p50_ms,
      latency_p90_ms, latency_p99_ms, latency_p999_ms, latency_max_ms);
  return buf;
}

std::string ServiceMetrics::SnapshotJson(const obs::Tracer* tracer,
                                         const obs::ErrorControlAuditor* auditor,
                                         const obs::SloMonitor* slo) const {
  std::string json = ToJson();
  if (tracer != nullptr) {
    const std::string stages = tracer->SummaryJson();
    if (stages != "[]") {
      // Splice into the flat object: {...} -> {...,"stages":[...]}
      json.pop_back();
      json += ",\"stages\":";
      json += stages;
      json += "}";
    }
  }
  if (auditor != nullptr) {
    const std::string audit = auditor->ToJson();
    if (audit != "[]") {
      json.pop_back();
      json += ",\"audit\":";
      json += audit;
      json += "}";
    }
  }
  if (slo != nullptr && slo->has_data()) {
    json.pop_back();
    json += ",\"slo\":";
    json += slo->ToJson();
    json += "}";
  }
  return json;
}

void AppendServiceMetricsProm(const ServiceMetrics::Snapshot& s,
                              obs::PromWriter* writer) {
  struct Row {
    const char* name;
    const char* type;
    const char* help;
    double value;
  };
  const Row rows[] = {
      {"mgardp_service_cache_hits_total", "counter",
       "Segment cache hits.", static_cast<double>(s.cache_hits)},
      {"mgardp_service_cache_misses_total", "counter",
       "Segment cache misses (backend fills).",
       static_cast<double>(s.cache_misses)},
      {"mgardp_service_cache_hit_bytes_total", "counter",
       "Bytes served from the segment cache.",
       static_cast<double>(s.cache_hit_bytes)},
      {"mgardp_service_cache_miss_bytes_total", "counter",
       "Bytes read from the backend on cache misses.",
       static_cast<double>(s.cache_miss_bytes)},
      {"mgardp_service_cache_evictions_total", "counter",
       "Segment cache evictions.", static_cast<double>(s.cache_evictions)},
      {"mgardp_service_single_flight_shared_total", "counter",
       "Fetches deduplicated onto an identical in-flight one.",
       static_cast<double>(s.single_flight_shared)},
      {"mgardp_service_planes_fetched_total", "counter",
       "Bit-planes fetched from the backend by sessions.",
       static_cast<double>(s.planes_fetched)},
      {"mgardp_service_planes_reused_total", "counter",
       "Bit-planes reused from session or shared cache.",
       static_cast<double>(s.planes_reused)},
      {"mgardp_service_fetched_bytes_total", "counter",
       "Bytes fetched from the backend by sessions.",
       static_cast<double>(s.fetched_bytes)},
      {"mgardp_service_reused_bytes_total", "counter",
       "Bytes reused without touching the backend.",
       static_cast<double>(s.reused_bytes)},
      {"mgardp_service_noop_refinements_total", "counter",
       "Refinements satisfied by the reconstruction already in hand.",
       static_cast<double>(s.noop_refinements)},
      {"mgardp_service_retries_total", "counter",
       "Transient-fault segment read retries.",
       static_cast<double>(s.retries_total)},
      {"mgardp_service_retrains_total", "counter",
       "Background model refits that published a candidate.",
       static_cast<double>(s.retrains_total)},
      {"mgardp_service_model_promotions_total", "counter",
       "Shadow-winning candidates promoted to serving.",
       static_cast<double>(s.model_promotions)},
      {"mgardp_service_candidate_rejections_total", "counter",
       "Shadow-losing candidates retired without serving.",
       static_cast<double>(s.candidate_rejections)},
      {"mgardp_service_model_rollbacks_total", "counter",
       "Automatic rollbacks after post-promotion regression.",
       static_cast<double>(s.model_rollbacks)},
      {"mgardp_service_shadow_pairs_total", "counter",
       "Live requests scored under both incumbent and candidate.",
       static_cast<double>(s.shadow_pairs)},
      {"mgardp_service_shadow_byte_ratio_p50", "gauge",
       "Median candidate/incumbent fetched-byte ratio while shadowing.",
       s.shadow_byte_ratio_p50},
      {"mgardp_service_shadow_byte_ratio_p90", "gauge",
       "90th-percentile candidate/incumbent fetched-byte ratio.",
       s.shadow_byte_ratio_p90},
      {"mgardp_service_requests_admitted_total", "counter",
       "Requests admitted by the scheduler.",
       static_cast<double>(s.requests_admitted)},
      {"mgardp_service_requests_rejected_total", "counter",
       "Requests rejected at admission.",
       static_cast<double>(s.requests_rejected)},
      {"mgardp_service_requests_completed_total", "counter",
       "Requests completed successfully.",
       static_cast<double>(s.requests_completed)},
      {"mgardp_service_requests_failed_total", "counter",
       "Requests that completed with an error.",
       static_cast<double>(s.requests_failed)},
      {"mgardp_service_queue_depth", "gauge",
       "Scheduler queue depth at the last admission/start event.",
       static_cast<double>(s.queue_depth)},
      {"mgardp_service_queue_depth_peak", "gauge",
       "Peak scheduler queue depth since reset.",
       static_cast<double>(s.queue_depth_peak)},
      {"mgardp_service_cache_hit_rate", "gauge",
       "Fraction of cache lookups that avoided the backend.",
       s.cache_hit_rate()},
      {"mgardp_service_request_latency_ms_p50", "gauge",
       "Median request latency (ms).", s.latency_p50_ms},
      {"mgardp_service_request_latency_ms_p90", "gauge",
       "90th-percentile request latency (ms).", s.latency_p90_ms},
      {"mgardp_service_request_latency_ms_p99", "gauge",
       "99th-percentile request latency (ms).", s.latency_p99_ms},
      {"mgardp_service_request_latency_ms_p999", "gauge",
       "99.9th-percentile request latency (ms).", s.latency_p999_ms},
      {"mgardp_service_request_latency_ms_max", "gauge",
       "Maximum request latency (ms).", s.latency_max_ms},
  };
  for (const Row& r : rows) {
    writer->Family(r.name, r.type, r.help);
    writer->Sample({}, r.value);
  }
}

ServiceMetrics::Snapshot ServiceMetrics::snapshot() const {
  Snapshot s;
  s.cache_hits = cache_hits_.load(kRelaxed);
  s.cache_misses = cache_misses_.load(kRelaxed);
  s.cache_hit_bytes = cache_hit_bytes_.load(kRelaxed);
  s.cache_miss_bytes = cache_miss_bytes_.load(kRelaxed);
  s.cache_evictions = cache_evictions_.load(kRelaxed);
  s.cache_evicted_bytes = cache_evicted_bytes_.load(kRelaxed);
  s.single_flight_shared = single_flight_shared_.load(kRelaxed);
  s.single_flight_shared_bytes = single_flight_shared_bytes_.load(kRelaxed);
  s.planes_fetched = planes_fetched_.load(kRelaxed);
  s.planes_reused = planes_reused_.load(kRelaxed);
  s.fetched_bytes = fetched_bytes_.load(kRelaxed);
  s.reused_bytes = reused_bytes_.load(kRelaxed);
  s.noop_refinements = noop_refinements_.load(kRelaxed);
  s.retries_total = retries_total_.load(kRelaxed);
  s.retrains_total = retrains_total_.load(kRelaxed);
  s.model_promotions = model_promotions_.load(kRelaxed);
  s.candidate_rejections = candidate_rejections_.load(kRelaxed);
  s.model_rollbacks = model_rollbacks_.load(kRelaxed);
  s.shadow_pairs = shadow_pairs_.load(kRelaxed);
  s.shadow_byte_ratio_p50 = shadow_byte_ratio_.Quantile(0.50);
  s.shadow_byte_ratio_p90 = shadow_byte_ratio_.Quantile(0.90);
  s.shadow_byte_ratio_mean =
      shadow_byte_ratio_.count() == 0
          ? 0.0
          : shadow_byte_ratio_.sum() /
                static_cast<double>(shadow_byte_ratio_.count());
  s.requests_admitted = requests_admitted_.load(kRelaxed);
  s.requests_rejected = requests_rejected_.load(kRelaxed);
  s.requests_started = requests_started_.load(kRelaxed);
  s.requests_completed = requests_completed_.load(kRelaxed);
  s.requests_failed = requests_failed_.load(kRelaxed);
  s.queue_depth = queue_depth_.load(kRelaxed);
  s.queue_depth_peak = queue_depth_peak_.load(kRelaxed);
  s.latency_count = latency_ms_.count();
  s.latency_p50_ms = latency_ms_.Quantile(0.50);
  s.latency_p90_ms = latency_ms_.Quantile(0.90);
  s.latency_p99_ms = latency_ms_.Quantile(0.99);
  s.latency_p999_ms = latency_ms_.Quantile(0.999);
  s.latency_max_ms = latency_ms_.max();
  return s;
}

void ServiceMetrics::Reset() {
  cache_hits_ = 0;
  cache_misses_ = 0;
  cache_hit_bytes_ = 0;
  cache_miss_bytes_ = 0;
  cache_evictions_ = 0;
  cache_evicted_bytes_ = 0;
  single_flight_shared_ = 0;
  single_flight_shared_bytes_ = 0;
  planes_fetched_ = 0;
  planes_reused_ = 0;
  fetched_bytes_ = 0;
  reused_bytes_ = 0;
  noop_refinements_ = 0;
  retries_total_ = 0;
  retrains_total_ = 0;
  model_promotions_ = 0;
  candidate_rejections_ = 0;
  model_rollbacks_ = 0;
  shadow_pairs_ = 0;
  shadow_byte_ratio_.Reset();
  requests_admitted_ = 0;
  requests_rejected_ = 0;
  requests_started_ = 0;
  requests_completed_ = 0;
  requests_failed_ = 0;
  queue_depth_ = 0;
  queue_depth_peak_ = 0;
  latency_ms_.Reset();
}

}  // namespace mgardp
