// Fault-injection matrix for the fault-tolerant retrieval path.
//
// For every fault kind (corrupt / missing / transient) hitting every depth
// (coarsest level / finest level), retrieval through the fault-tolerant
// reconstructor must never crash, and:
//   * transient faults end in a result bit-identical to the fault-free run,
//   * permanent faults end in a degraded-but-honest report whose achieved
//     bound dominates the error actually measured against the original.

#include "progressive/fault_tolerant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "progressive/refactorer.h"
#include "storage/fault_injection.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

Array3Dd MakeField(Dims3 dims, std::uint64_t seed = 29) {
  Rng rng(seed);
  Array3Dd a(dims);
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        a(i, j, k) = std::sin(0.4 * i) * std::cos(0.25 * j) +
                     0.5 * std::sin(0.15 * k) + 0.01 * rng.NextGaussian();
      }
    }
  }
  return a;
}

class FaultTolerantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = MakeField(Dims3{17, 17, 17});
    auto result = Refactorer().Refactor(original_);
    ASSERT_TRUE(result.ok());
    field_ = std::move(result).value();
    bound_ = 1e-4 * field_.data_summary.range();

    // The fault-free baseline everything else is compared against.
    MemoryBackend clean(&field_.segments);
    FaultTolerantReconstructor ft(&theory_);
    RetrievalReport report;
    auto data = ft.Retrieve(field_, &clean, bound_, &report);
    ASSERT_TRUE(data.ok());
    ASSERT_FALSE(report.degraded);
    baseline_ = std::move(data).value();
    baseline_report_ = report;
  }

  // A reconstructor whose retries are instant (recorded, not slept).
  FaultTolerantReconstructor FastReconstructor() {
    FaultTolerantReconstructor ft(&theory_);
    ft.mutable_retry_policy()->set_sleep([](double) {});
    return ft;
  }

  Array3Dd original_{Dims3{1, 1, 1}};
  RefactoredField field_;
  TheoryEstimator theory_;
  double bound_ = 0.0;
  Array3Dd baseline_{Dims3{1, 1, 1}};
  RetrievalReport baseline_report_;
};

TEST_F(FaultTolerantTest, MatrixOfFaultsByLevel) {
  struct Case {
    const char* name;
    FaultKind kind;
    bool permanent;
  };
  const Case kCases[] = {
      {"corrupt", FaultKind::kBitFlip, true},
      {"missing", FaultKind::kMissing, true},
      {"truncate", FaultKind::kTruncate, true},
      {"transient", FaultKind::kTransient, false},
  };
  const int levels[] = {0, field_.num_levels() - 1};

  for (const Case& c : kCases) {
    for (int level : levels) {
      SCOPED_TRACE(std::string(c.name) + " at level " +
                   std::to_string(level));
      // Hit a plane the fault-free plan actually fetches, so the fault is
      // guaranteed to be on the retrieval path.
      const int plane =
          std::max(0, baseline_report_.achieved_prefix[level] / 2);

      MemoryBackend memory(&field_.segments);
      FaultInjectingBackend faulty(&memory);
      FaultInjectingBackend::FaultRule rule;
      rule.kind = c.kind;
      rule.fail_attempts = c.permanent ? -1 : 1;
      faulty.SetFault(level, plane, rule);
      VerifyingBackend backend(&faulty, field_.segments);

      FaultTolerantReconstructor ft = FastReconstructor();
      RetrievalReport report;
      auto data = ft.Retrieve(field_, &backend, bound_, &report);
      ASSERT_TRUE(data.ok()) << data.status().ToString();

      if (c.permanent) {
        EXPECT_TRUE(report.degraded);
        ASSERT_FALSE(report.skipped.empty());
        EXPECT_EQ(report.skipped.front().level, level);
        EXPECT_EQ(report.skipped.front().plane, plane);
        EXPECT_GE(report.replans, 1);
        // The level's prefix stops at the last verified plane.
        EXPECT_LE(report.achieved_prefix[level], plane);
        // The reported bound must dominate the measured error: degraded,
        // but never silently wrong.
        const double measured =
            MaxAbsError(original_.vector(), data.value().vector());
        EXPECT_GE(report.achieved_bound, measured);
      } else {
        EXPECT_FALSE(report.degraded);
        EXPECT_TRUE(report.skipped.empty());
        EXPECT_GE(report.retries, 1);
        // Bit-identical to the fault-free run once the retry lands.
        EXPECT_EQ(data.value().vector(), baseline_.vector());
        EXPECT_EQ(report.achieved_prefix, baseline_report_.achieved_prefix);
      }
    }
  }
}

TEST_F(FaultTolerantTest, SeededFaultMixStaysHonest) {
  // Faults drawn from a seeded mix instead of placed by hand: whatever the
  // mix hits, retrieval completes, every skip is reported, and the
  // achieved bound still dominates the measured error.
  for (std::uint64_t seed : {3u, 11u, 19u, 27u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultConfig config;
    config.seed = seed;
    config.missing_prob = 0.05;
    config.transient_prob = 0.1;
    config.corrupt_prob = 0.05;
    config.truncate_prob = 0.05;
    MemoryBackend memory(&field_.segments);
    FaultInjectingBackend faulty(&memory, config);
    VerifyingBackend backend(&faulty, field_.segments);

    FaultTolerantReconstructor ft = FastReconstructor();
    RetrievalReport report;
    auto data = ft.Retrieve(field_, &backend, bound_, &report);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(report.degraded, !report.skipped.empty());
    EXPECT_EQ(report.bound_met, report.achieved_bound <= bound_);
    const double measured =
        MaxAbsError(original_.vector(), data.value().vector());
    EXPECT_GE(report.achieved_bound, measured);
    if (!report.degraded) {
      // Every fault on the path was transient and absorbed by retries.
      EXPECT_EQ(data.value().vector(), baseline_.vector());
    }
  }
}

TEST_F(FaultTolerantTest, SlowSegmentsChangeNothingButLatency) {
  MemoryBackend memory(&field_.segments);
  FaultConfig config;
  config.latency_prob = 1.0;
  config.latency_ms = 4.0;
  FaultInjectingBackend slow(&memory, config);

  FaultTolerantReconstructor ft = FastReconstructor();
  RetrievalReport report;
  auto data = ft.Retrieve(field_, &slow, bound_, &report);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(data.value().vector(), baseline_.vector());
  EXPECT_EQ(report.achieved_prefix, baseline_report_.achieved_prefix);
  EXPECT_EQ(slow.num_faults(FaultKind::kLatency), slow.num_gets());
  EXPECT_DOUBLE_EQ(slow.total_latency_ms(), 4.0 * slow.num_gets());
}

TEST_F(FaultTolerantTest, PermanentlyFlakySegmentExhaustsRetriesThenDegrades) {
  const int level = 0;
  const int plane = std::max(0, baseline_report_.achieved_prefix[level] / 2);
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(level, plane, {FaultKind::kTransient, -1});

  FaultTolerantReconstructor ft = FastReconstructor();
  RetrievalReport report;
  auto data = ft.Retrieve(field_, &faulty, bound_, &report);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.retries,
            ft.retry_policy().options().max_attempts - 1);
  ASSERT_FALSE(report.skipped.empty());
  EXPECT_EQ(report.skipped.front().reason.code(), StatusCode::kIOError);
}

TEST_F(FaultTolerantTest, WholeLevelLossStillReconstructs) {
  // Every plane of the finest level is gone; the retrieval must fall back
  // to the surviving levels and say so.
  const int level = field_.num_levels() - 1;
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  for (int p = 0; p < field_.num_planes; ++p) {
    faulty.SetFault(level, p, {FaultKind::kMissing});
  }

  FaultTolerantReconstructor ft = FastReconstructor();
  RetrievalReport report;
  auto data = ft.Retrieve(field_, &faulty, bound_, &report);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.achieved_prefix[level], 0);
  const double measured =
      MaxAbsError(original_.vector(), data.value().vector());
  EXPECT_GE(report.achieved_bound, measured);
}

TEST_F(FaultTolerantTest, ReportToStringMentionsSkips) {
  MemoryBackend memory(&field_.segments);
  FaultInjectingBackend faulty(&memory);
  faulty.SetFault(0, 0, {FaultKind::kMissing});
  FaultTolerantReconstructor ft = FastReconstructor();
  RetrievalReport report;
  ASSERT_TRUE(ft.Retrieve(field_, &faulty, bound_, &report).ok());
  const std::string text = report.ToString();
  EXPECT_NE(text.find("DEGRADED"), std::string::npos);
  EXPECT_NE(text.find("level=0"), std::string::npos);
}

TEST_F(FaultTolerantTest, DirectoryBackendEndToEnd) {
  // Store to disk, corrupt one plane's bytes on disk, retrieve tolerantly.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mgardp_ft_dir").string();
  fs::remove_all(dir);
  ASSERT_TRUE(field_.segments.WriteToDirectory(dir).ok());

  const int level = 0;
  const int plane = std::max(0, baseline_report_.achieved_prefix[level] / 2);
  {
    const std::string path = container::LevelFileName(dir, level);
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    std::string damaged = bytes.value();
    // The plane's offset within the level file is the sum of the preceding
    // plane sizes; damage one byte inside its range.
    std::size_t offset = 0;
    for (int p = 0; p < plane; ++p) {
      offset += field_.segments.SizeOf(level, p);
    }
    ASSERT_LT(offset, damaged.size());
    damaged[offset] ^= 0x40;
    ASSERT_TRUE(WriteFile(path, damaged).ok());
  }

  auto backend = DirectoryBackend::Open(dir);
  ASSERT_TRUE(backend.ok());
  FaultTolerantReconstructor ft = FastReconstructor();
  RetrievalReport report;
  auto data = ft.Retrieve(field_, &backend.value(), bound_, &report);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.skipped.empty());
  EXPECT_EQ(report.skipped.front().level, level);
  EXPECT_EQ(report.skipped.front().reason.code(), StatusCode::kDataLoss);
  const double measured =
      MaxAbsError(original_.vector(), data.value().vector());
  EXPECT_GE(report.achieved_bound, measured);
  fs::remove_all(dir);
}

TEST_F(FaultTolerantTest, LegacyV1DirectoryRetrievesWithoutChecksums) {
  // A pre-checksum container: same layout, v1 index. The tolerant path
  // must still plan, fetch, and reconstruct bit-identically.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mgardp_ft_v1").string();
  fs::remove_all(dir);
  ASSERT_TRUE(field_.segments.WriteToDirectory(dir).ok());
  {
    // Strip the v2 index down to v1 (drop magic/version and the CRCs).
    auto idx = ReadFileToString(dir + "/segments.idx");
    ASSERT_TRUE(idx.ok());
    std::vector<container::IndexRecord> records;
    ASSERT_TRUE(container::ParseIndex(idx.value(), &records).ok());
    BinaryWriter w;
    w.Put<std::uint64_t>(records.size());
    for (const container::IndexRecord& rec : records) {
      w.Put<std::int32_t>(rec.level);
      w.Put<std::int32_t>(rec.plane);
      w.Put<std::uint64_t>(rec.offset);
      w.Put<std::uint64_t>(rec.size);
    }
    ASSERT_TRUE(WriteFile(dir + "/segments.idx", w.TakeBuffer()).ok());
  }

  auto backend = DirectoryBackend::Open(dir);
  ASSERT_TRUE(backend.ok());
  FaultTolerantReconstructor ft = FastReconstructor();
  RetrievalReport report;
  auto data = ft.Retrieve(field_, &backend.value(), bound_, &report);
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(data.value().vector(), baseline_.vector());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mgardp
