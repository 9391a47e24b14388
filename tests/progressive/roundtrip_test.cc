// Property-style sweeps over the whole refactor -> retrieve pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

Array3Dd MultiscaleField(Dims3 dims, std::uint64_t seed) {
  Rng rng(seed);
  Array3Dd a(dims);
  const double f1 = rng.Uniform(0.1, 0.4);
  const double f2 = rng.Uniform(0.8, 2.0);
  const double amp = std::pow(10.0, rng.Uniform(-3.0, 3.0));
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        a(i, j, k) = amp * (std::sin(f1 * i + f2 * j) +
                            0.3 * std::cos(f2 * i - f1 * k) +
                            0.05 * rng.NextGaussian());
      }
    }
  }
  return a;
}

// (dims, seed, relative bound)
using Param = std::tuple<Dims3, std::uint64_t, double>;

class PipelinePropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(PipelinePropertyTest, RetrievalRespectsRequestedBound) {
  const auto [dims, seed, rel] = GetParam();
  Array3Dd original = MultiscaleField(dims, seed);
  auto fr = Refactorer().Refactor(original);
  ASSERT_TRUE(fr.ok());
  const RefactoredField& field = fr.value();

  TheoryEstimator theory;
  Reconstructor rec(&theory);
  const double bound = rel * field.data_summary.range();
  RetrievalPlan plan;
  auto data = rec.Retrieve(field, bound, &plan);
  ASSERT_TRUE(data.ok());

  const double actual = MaxAbsError(original.vector(), data.value().vector());
  const bool full = plan.prefix ==
                    std::vector<int>(field.num_levels(), field.num_planes);
  if (plan.estimated_error <= bound) {
    // Conservative estimator property: the achieved error never exceeds
    // the requested bound.
    EXPECT_LE(actual, bound);
  } else {
    // Bound below the conservative floor: everything must be fetched.
    EXPECT_TRUE(full);
  }
  // Either way the estimate never under-reports the actual error.
  EXPECT_GE(plan.estimated_error + 1e-300, actual);
  // Bytes are consistent with the plan.
  EXPECT_EQ(plan.total_bytes, MakeSizeInterpreter(field).TotalBytes(plan.prefix));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinePropertyTest,
    ::testing::Combine(
        ::testing::Values(Dims3{17, 17, 17}, Dims3{33, 33, 1},
                          Dims3{65, 1, 1}, Dims3{9, 17, 33}),
        ::testing::Values(1u, 2u, 3u),
        ::testing::Values(1e-1, 1e-3, 1e-5)));

TEST(PipelineMonotonicityTest, MorePlanesNeverIncreaseError) {
  Array3Dd original = MultiscaleField(Dims3{17, 17, 17}, 77);
  auto fr = Refactorer().Refactor(original);
  ASSERT_TRUE(fr.ok());
  const RefactoredField& field = fr.value();
  double prev = 1e300;
  for (int b = 0; b <= 32; b += 4) {
    auto data = ReconstructFromPrefix(
        field, std::vector<int>(field.num_levels(), b));
    ASSERT_TRUE(data.ok());
    const double err =
        MaxAbsError(original.vector(), data.value().vector());
    // Per-level errors shrink ~16x per 4 planes; allow small headroom for
    // cancellation effects in the max-norm.
    EXPECT_LE(err, prev * 1.1) << "b=" << b;
    prev = err;
  }
}

TEST(PipelineTinyMagnitudeTest, FieldScaledBy1e300RefactorsAndRetrieves) {
  // Detail levels of a field scaled by 1e-300 sit below 2^-994, where the
  // tight exponent would overflow the bit-plane scale. They are stored at
  // the exponent floor instead; the error matrix must still bound what the
  // decoder returns.
  Array3Dd original = MultiscaleField(Dims3{17, 17, 17}, 5);
  for (double& v : original.vector()) {
    v *= 1e-300;
  }
  auto fr = Refactorer().Refactor(original);
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  const RefactoredField& field = fr.value();
  bool at_floor = false;
  for (int e : field.level_exponents) {
    at_floor = at_floor || e == field.num_planes - 1025;
  }
  EXPECT_TRUE(at_floor);

  TheoryEstimator theory;
  Reconstructor rec(&theory);
  for (double rel : {1e-1, 1e-3, 1e-5}) {
    const double bound = rel * field.data_summary.range();
    RetrievalPlan plan;
    auto data = rec.Retrieve(field, bound, &plan);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    const double actual =
        MaxAbsError(original.vector(), data.value().vector());
    EXPECT_GE(plan.estimated_error, actual) << "rel=" << rel;
    if (plan.estimated_error <= bound) {
      EXPECT_LE(actual, bound) << "rel=" << rel;
    }
  }
  for (int b : {0, 8, 16, 32}) {
    const std::vector<int> prefix(field.num_levels(), b);
    auto data = ReconstructFromPrefix(field, prefix);
    ASSERT_TRUE(data.ok());
    EXPECT_GE(theory.Estimate(field, prefix),
              MaxAbsError(original.vector(), data.value().vector()))
        << "b=" << b;
  }
}

}  // namespace
}  // namespace mgardp
