// Service metrics: counter plumbing, hit-rate math, JSON snapshot.

#include "service/service_metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "obs/prom_export.h"
#include "obs/tracer.h"

namespace mgardp {
namespace {

TEST(ServiceMetricsTest, CountersAccumulate) {
  ServiceMetrics m;
  m.OnCacheHit(100);
  m.OnCacheHit(50);
  m.OnCacheMiss(200);
  m.OnCacheEvict(25);
  m.OnSingleFlightShared(10);
  m.OnPlanesFetched(3, 300);
  m.OnPlanesReused(5, 500);
  m.OnNoopRefinement();

  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_hit_bytes, 150u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_miss_bytes, 200u);
  EXPECT_EQ(s.cache_evictions, 1u);
  EXPECT_EQ(s.cache_evicted_bytes, 25u);
  EXPECT_EQ(s.single_flight_shared, 1u);
  EXPECT_EQ(s.single_flight_shared_bytes, 10u);
  EXPECT_EQ(s.planes_fetched, 3u);
  EXPECT_EQ(s.fetched_bytes, 300u);
  EXPECT_EQ(s.planes_reused, 5u);
  EXPECT_EQ(s.reused_bytes, 500u);
  EXPECT_EQ(s.noop_refinements, 1u);
}

TEST(ServiceMetricsTest, HitRateCountsSharedFetchesAsHits) {
  ServiceMetrics m;
  EXPECT_DOUBLE_EQ(m.snapshot().cache_hit_rate(), 0.0);
  m.OnCacheHit(1);
  m.OnCacheMiss(1);
  m.OnSingleFlightShared(1);
  m.OnCacheMiss(1);
  // (1 hit + 1 shared) / 4 lookups.
  EXPECT_DOUBLE_EQ(m.snapshot().cache_hit_rate(), 0.5);
}

TEST(ServiceMetricsTest, SchedulerCountersAndLatency) {
  ServiceMetrics m;
  m.OnAdmitted(1);
  m.OnAdmitted(2);
  m.OnRejected();
  m.OnStarted(2, 0);
  m.OnCompleted(true, 10.0);
  m.OnCompleted(false, 20.0);

  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.requests_admitted, 2u);
  EXPECT_EQ(s.requests_rejected, 1u);
  EXPECT_EQ(s.requests_started, 2u);
  EXPECT_EQ(s.requests_completed, 1u);  // successes only
  EXPECT_EQ(s.requests_failed, 1u);
  EXPECT_EQ(s.queue_depth, 0u);  // what OnStarted left behind
  EXPECT_EQ(s.queue_depth_peak, 2u);
  EXPECT_EQ(s.latency_count, 2u);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_LE(s.latency_p50_ms, s.latency_p99_ms);
  EXPECT_DOUBLE_EQ(s.latency_max_ms, 20.0);
}

TEST(ServiceMetricsTest, StartedCountsWholeBatches) {
  ServiceMetrics m;
  m.OnStarted(3, 5);
  m.OnStarted(4, 0);
  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.requests_started, 7u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServiceMetricsTest, JsonHasEveryCounterKey) {
  ServiceMetrics m;
  m.OnCacheHit(7);
  m.OnCompleted(true, 1.5);
  const std::string json = m.ToJson();
  for (const char* key :
       {"cache_hits", "cache_misses", "cache_hit_bytes", "cache_evictions",
        "single_flight_shared", "cache_hit_rate", "planes_fetched",
        "planes_reused", "noop_refinements", "requests_admitted",
        "requests_rejected", "requests_started", "queue_depth_peak",
        "latency_count",
        "latency_p50_ms", "latency_p99_ms", "latency_max_ms"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\":"), std::string::npos)
        << "missing key " << key << " in " << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ServiceMetricsTest, SnapshotJsonWithoutTracerIsPlainJson) {
  ServiceMetrics m;
  m.OnCacheHit(1);
  EXPECT_EQ(m.SnapshotJson(nullptr), m.ToJson());
  // A tracer that recorded nothing adds nothing.
  obs::Tracer idle;
  idle.set_enabled(true);
  EXPECT_EQ(m.SnapshotJson(&idle), m.ToJson());
}

TEST(ServiceMetricsTest, SnapshotJsonMergesStageSummary) {
  ServiceMetrics m;
  m.OnCacheHit(1);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::StageStats* stage = tracer.GetOrCreateStage("test/stage", "service");
  const auto t0 = std::chrono::steady_clock::now();
  tracer.RecordInterval(stage, t0, t0 + std::chrono::milliseconds(2));

  const std::string json = m.SnapshotJson(&tracer);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"test/stage\""), std::string::npos) << json;
  // Still one well-formed object: the stages array is spliced in before
  // the closing brace.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // The plain keys survive the splice.
  EXPECT_NE(json.find("\"cache_hits\":1"), std::string::npos) << json;
}

TEST(ServiceMetricsTest, ResetZeroesEverything) {
  ServiceMetrics m;
  m.OnCacheHit(1);
  m.OnAdmitted(1);
  m.OnCompleted(true, 5.0);
  m.Reset();
  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.requests_admitted, 0u);
  EXPECT_EQ(s.requests_completed, 0u);
  EXPECT_EQ(s.latency_count, 0u);
  EXPECT_EQ(s.latency_max_ms, 0.0);
}


TEST(ServiceMetricsTest, RetriesReachJsonAndPrometheus) {
  ServiceMetrics m;
  m.OnRetries(2);
  m.OnRetries(3);
  EXPECT_EQ(m.snapshot().retries_total, 5u);
  EXPECT_NE(m.ToJson().find("\"retries_total\":5"), std::string::npos)
      << m.ToJson();

  obs::PromWriter writer;
  AppendServiceMetricsProm(m.snapshot(), &writer);
  EXPECT_NE(writer.str().find("# TYPE mgardp_service_retries_total counter\n"
                              "mgardp_service_retries_total 5\n"),
            std::string::npos)
      << writer.str();
  m.Reset();
  EXPECT_EQ(m.snapshot().retries_total, 0u);
}

TEST(ServiceMetricsTest, LearningCountersAccumulate) {
  ServiceMetrics m;
  m.OnRetrain();
  m.OnRetrain();
  m.OnModelPromoted();
  m.OnCandidateRejected();
  m.OnModelRolledBack();
  m.OnShadowPair(0.5);
  m.OnShadowPair(1.5);

  const ServiceMetrics::Snapshot s = m.snapshot();
  EXPECT_EQ(s.retrains_total, 2u);
  EXPECT_EQ(s.model_promotions, 1u);
  EXPECT_EQ(s.candidate_rejections, 1u);
  EXPECT_EQ(s.model_rollbacks, 1u);
  EXPECT_EQ(s.shadow_pairs, 2u);
  EXPECT_NEAR(s.shadow_byte_ratio_mean, 1.0, 1e-9);
  EXPECT_LE(s.shadow_byte_ratio_p50, s.shadow_byte_ratio_p90);
  const std::string json = s.ToJson();
  for (const char* key :
       {"\"retrains_total\":2", "\"model_promotions\":1",
        "\"candidate_rejections\":1", "\"model_rollbacks\":1",
        "\"shadow_pairs\":2"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

}  // namespace
}  // namespace mgardp
