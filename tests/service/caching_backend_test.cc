// CachingBackend: the shared segment cache as a StorageBackend decorator.
// Fills go through the inner backend once, writes invalidate, field ids
// namespace the shared cache, failed or unverified reads are never cached,
// and the fault-tolerant reconstructor becomes cache-aware by wrapping its
// backend.

#include "service/caching_backend.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "progressive/fault_tolerant.h"
#include "progressive/refactorer.h"
#include "service/segment_cache.h"
#include "service/service_metrics.h"
#include "sim/warpx.h"
#include "storage/fault_injection.h"
#include "storage/storage_backend.h"

namespace mgardp {
namespace {

SegmentStore SampleStore() {
  SegmentStore store;
  store.Put(0, 0, "coarsest plane");
  store.Put(0, 1, std::string(2048, 'y'));
  store.Put(1, 0, "finer plane");
  return store;
}

TEST(CachingBackendTest, MissFillsThroughInnerThenHits) {
  SegmentStore store = SampleStore();
  MemoryBackend memory(&store);
  FaultInjectingBackend counting(&memory);  // no faults: counts reads
  ServiceMetrics metrics;
  SegmentCache cache(SegmentCache::Options(), &metrics);
  CachingBackend cached("f", &counting, &cache);

  SegmentCache::Source source = SegmentCache::Source::kCacheHit;
  EXPECT_EQ(cached.GetTracked(0, 1, &source).value(), std::string(2048, 'y'));
  EXPECT_EQ(source, SegmentCache::Source::kFetched);
  EXPECT_EQ(cached.GetTracked(0, 1, &source).value(), std::string(2048, 'y'));
  EXPECT_EQ(source, SegmentCache::Source::kCacheHit);
  EXPECT_EQ(cached.Get(0, 1).value(), std::string(2048, 'y'));

  EXPECT_EQ(counting.num_gets(), 1);
  EXPECT_TRUE(cache.Contains({"f", 0, 1}));
  const ServiceMetrics::Snapshot s = metrics.snapshot();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache_hit_bytes, 2u * 2048u);
}

TEST(CachingBackendTest, PutWritesThroughAndInvalidates) {
  MemoryBackend memory;
  ASSERT_TRUE(memory.Put(0, 0, "old bytes").ok());
  SegmentCache cache;
  CachingBackend cached("f", &memory, &cache);

  EXPECT_EQ(cached.Get(0, 0).value(), "old bytes");
  ASSERT_TRUE(cache.Contains({"f", 0, 0}));
  ASSERT_TRUE(cached.Put(0, 0, "new bytes").ok());
  // The stale copy is gone and the write reached the inner backend.
  EXPECT_FALSE(cache.Contains({"f", 0, 0}));
  EXPECT_EQ(memory.Get(0, 0).value(), "new bytes");
  EXPECT_EQ(cached.Get(0, 0).value(), "new bytes");
}

TEST(CachingBackendTest, FieldIdsNamespaceTheSharedCache) {
  MemoryBackend first;
  MemoryBackend second;
  ASSERT_TRUE(first.Put(0, 0, "first artifact").ok());
  ASSERT_TRUE(second.Put(0, 0, "second artifact").ok());
  SegmentCache cache;
  CachingBackend a("a", &first, &cache);
  CachingBackend b("b", &second, &cache);

  // Same (level, plane), one cache: each backend sees only its own bytes.
  EXPECT_EQ(a.Get(0, 0).value(), "first artifact");
  EXPECT_EQ(b.Get(0, 0).value(), "second artifact");
  EXPECT_EQ(a.Get(0, 0).value(), "first artifact");
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(a.field_id(), "a");

  // Invalidation is namespaced too.
  ASSERT_TRUE(b.Put(0, 0, "rewritten").ok());
  EXPECT_TRUE(cache.Contains({"a", 0, 0}));
  EXPECT_FALSE(cache.Contains({"b", 0, 0}));
}

TEST(CachingBackendTest, FailedFillIsRetriedNotCached) {
  SegmentStore store = SampleStore();
  MemoryBackend memory(&store);
  FaultInjectingBackend flaky(&memory);
  flaky.SetFault(1, 0, {FaultKind::kTransient, 1});
  flaky.SetFault(0, 0, {FaultKind::kMissing});
  SegmentCache cache;
  CachingBackend cached("f", &flaky, &cache);

  EXPECT_EQ(cached.Get(1, 0).status().code(), StatusCode::kIOError);
  EXPECT_FALSE(cache.Contains({"f", 1, 0}));
  // The next read goes back to the inner backend and fills normally.
  EXPECT_EQ(cached.Get(1, 0).value(), "finer plane");
  EXPECT_TRUE(cache.Contains({"f", 1, 0}));

  // A permanently missing segment is asked for again every time rather
  // than remembered as absent.
  EXPECT_EQ(cached.Get(0, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cached.Get(0, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(flaky.num_gets(), 4);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(CachingBackendTest, CachesOnlyVerifiedBytes) {
  SegmentStore store = SampleStore();
  MemoryBackend memory(&store);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(0, 1, {FaultKind::kBitFlip});
  VerifyingBackend verifying(&faulty, store);
  SegmentCache cache;
  CachingBackend cached("f", &verifying, &cache);

  EXPECT_EQ(cached.Get(0, 1).status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(cache.Contains({"f", 0, 1}));

  // Once the medium reads clean again, the verified bytes fill the cache.
  faulty.ClearFault(0, 1);
  EXPECT_EQ(cached.Get(0, 1).value(), std::string(2048, 'y'));
  EXPECT_TRUE(cache.Contains({"f", 0, 1}));
}

TEST(CachingBackendTest, ConcurrentReadersShareOneInnerRead) {
  SegmentStore store = SampleStore();
  MemoryBackend memory(&store);
  FaultInjectingBackend counting(&memory);
  ServiceMetrics metrics;
  SegmentCache cache(SegmentCache::Options(), &metrics);
  CachingBackend cached("f", &counting, &cache);

  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = cached.Get(0, 1).value(); });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const std::string& payload : got) {
    EXPECT_EQ(payload, std::string(2048, 'y'));
  }
  // Late arrivals either joined the in-flight fill or hit the filled
  // entry; the inner backend was read once either way.
  EXPECT_EQ(counting.num_gets(), 1);
  const ServiceMetrics::Snapshot s = metrics.snapshot();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits + s.single_flight_shared,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(CachingBackendTest, DelegatesKeysContainsAndName) {
  SegmentStore store = SampleStore();
  MemoryBackend memory(&store);
  SegmentCache cache;
  CachingBackend cached("f", &memory, &cache);

  EXPECT_EQ(cached.Keys(), memory.Keys());
  EXPECT_TRUE(cached.Contains(1, 0));
  EXPECT_FALSE(cached.Contains(1, 1));
  EXPECT_EQ(cached.name(), "cache+memory");
  // Metadata queries answer from the inner backend without filling.
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(CachingBackendTest, FaultTolerantRetrievalThroughCacheIsBitIdentical) {
  WarpXSimulator sim(Dims3{17, 17, 17});
  auto refactored = Refactorer().Refactor(sim.Field(WarpXField::kEx, 6));
  ASSERT_TRUE(refactored.ok());
  const RefactoredField field = std::move(refactored).value();
  const double bound = 1e-3 * field.data_summary.range();
  TheoryEstimator theory;

  MemoryBackend memory(&field.segments);
  FaultTolerantReconstructor direct_ft(&theory);
  RetrievalReport direct_report;
  auto direct = direct_ft.Retrieve(field, &memory, bound, &direct_report);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  FaultInjectingBackend counting(&memory);
  SegmentCache cache;
  CachingBackend cached("ex", &counting, &cache);
  FaultTolerantReconstructor ft(&theory);
  RetrievalReport first;
  auto cold = ft.Retrieve(field, &cached, bound, &first);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().vector(), direct.value().vector());
  EXPECT_FALSE(first.degraded);
  const int reads = counting.num_gets();
  EXPECT_GT(reads, 0);

  // A second retrieval at the same bound is served entirely from memory.
  RetrievalReport second;
  auto warm = ft.Retrieve(field, &cached, bound, &second);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().vector(), direct.value().vector());
  EXPECT_EQ(counting.num_gets(), reads);
  EXPECT_EQ(cache.entries(), static_cast<std::size_t>(reads));
}


TEST(CachingBackendTest, DegradedRetrievalCachesNothingUnverified) {
  // The cache sits above the verifying layer: a segment that fails its
  // checksum is skipped by the fault-tolerant reconstructor and never
  // cached, so once the medium reads clean again the next retrieval
  // fetches it afresh and recovers the fault-free result.
  WarpXSimulator sim(Dims3{17, 17, 17});
  auto refactored = Refactorer().Refactor(sim.Field(WarpXField::kEx, 6));
  ASSERT_TRUE(refactored.ok());
  const RefactoredField field = std::move(refactored).value();
  const double bound = 1e-3 * field.data_summary.range();
  TheoryEstimator theory;

  MemoryBackend memory(&field.segments);
  FaultTolerantReconstructor direct_ft(&theory);
  RetrievalReport clean_report;
  auto clean = direct_ft.Retrieve(field, &memory, bound, &clean_report);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const int plane = clean_report.achieved_prefix[0] / 2;

  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(0, plane, {FaultKind::kBitFlip});
  VerifyingBackend verifying(&faulty, field.segments);
  SegmentCache cache;
  CachingBackend cached("ex", &verifying, &cache);
  FaultTolerantReconstructor ft(&theory);

  RetrievalReport degraded;
  ASSERT_TRUE(ft.Retrieve(field, &cached, bound, &degraded).ok());
  ASSERT_TRUE(degraded.degraded);
  ASSERT_FALSE(degraded.skipped.empty());
  EXPECT_EQ(degraded.skipped.front().level, 0);
  EXPECT_EQ(degraded.skipped.front().plane, plane);
  EXPECT_FALSE(cache.Contains({"ex", 0, plane}));
  const int reads = faulty.num_gets();

  faulty.ClearFaults();
  RetrievalReport recovered;
  auto data = ft.Retrieve(field, &cached, bound, &recovered);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.achieved_prefix, clean_report.achieved_prefix);
  EXPECT_EQ(data.value().vector(), clean.value().vector());
  EXPECT_TRUE(cache.Contains({"ex", 0, plane}));
  // The skipped plane was read again; segments cached by the degraded
  // run were not.
  EXPECT_GT(faulty.num_gets(), reads);
  EXPECT_LT(faulty.num_gets() - reads, reads);
}

}  // namespace
}  // namespace mgardp
