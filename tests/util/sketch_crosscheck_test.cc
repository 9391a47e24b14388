// Cross-checks the parallel radix-select AbsQuantileSketch against the
// serial nth_element reference (internal::AbsQuantileSketchSerial) byte for
// byte, at 1 and 8 pool threads. The sketches are stored in refactored
// fields and feed E-MGARD features, so any drift -- a bucket boundary off
// by one, a lost tie, a misordered subnormal or infinity -- must surface
// here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "decompose/decomposer.h"
#include "decompose/hierarchy.h"
#include "decompose/interleaver.h"
#include "sim/warpx.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mgardp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class SketchCrossCheck : public ::testing::TestWithParam<int> {
 protected:
  SketchCrossCheck() : ambient_threads_(GlobalThreadCount()) {
    SetGlobalThreadCount(GetParam());
  }
  ~SketchCrossCheck() override { SetGlobalThreadCount(ambient_threads_); }

  // Compares both sketches bitwise for several bin counts, including more
  // bins than values and the refactorer's default of 32.
  static void ExpectMatches(const std::vector<double>& values,
                            const std::string& what) {
    for (std::size_t bins : {1, 7, 32, 100}) {
      const std::vector<double> ref =
          internal::AbsQuantileSketchSerial(values, bins);
      const std::vector<double> got = AbsQuantileSketch(values, bins);
      ASSERT_EQ(got.size(), bins);
      EXPECT_EQ(std::memcmp(got.data(), ref.data(), bins * sizeof(double)), 0)
          << what << ": n=" << values.size() << " bins=" << bins;
    }
  }

 private:
  int ambient_threads_;
};

TEST_P(SketchCrossCheck, EveryLevelOfADecomposedField) {
  const Dims3 dims{129, 129, 129};
  Array3Dd data = WarpXSimulator(dims).Field(WarpXField::kEx, 7);
  const GridHierarchy hierarchy = GridHierarchy::Create(dims).ValueOrDie();
  ASSERT_TRUE(Decomposer(hierarchy).Decompose(&data).ok());
  const std::vector<std::vector<double>> levels =
      Interleaver(hierarchy).Extract(data);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    ExpectMatches(levels[l], "level " + std::to_string(l));
  }
}

TEST_P(SketchCrossCheck, ZerosAndSignedZeros) {
  ExpectMatches(std::vector<double>(1000, 0.0), "zeros");
  std::vector<double> mixed(1001);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = i % 3 == 0 ? -0.0 : 0.0;
  }
  ExpectMatches(mixed, "mixed +-0.0");
  mixed[500] = 1.0;
  ExpectMatches(mixed, "signed zeros and one value");
}

TEST_P(SketchCrossCheck, HeavyTies) {
  Rng rng(5);
  std::vector<double> v(5000);
  for (double& x : v) {
    // Four distinct magnitudes, random signs.
    const double mag = static_cast<double>(rng.NextBounded(4));
    x = rng.NextBounded(2) == 0 ? mag : -mag;
  }
  ExpectMatches(v, "four magnitudes");
}

TEST_P(SketchCrossCheck, Subnormals) {
  Rng rng(6);
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> v(3000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double sub = tiny * static_cast<double>(rng.NextBounded(1000000));
    v[i] = i % 4 == 0 ? rng.NextGaussian() : (i % 2 == 0 ? sub : -sub);
  }
  ExpectMatches(v, "subnormals mixed with normals");
}

TEST_P(SketchCrossCheck, SingleBucket) {
  // Every value shares exponent and top mantissa bits: one radix bucket
  // holds the whole input and the selection runs entirely inside it.
  Rng rng(7);
  std::vector<double> v(4096);
  for (double& x : v) {
    x = -(1.0 + std::ldexp(static_cast<double>(rng.NextBounded(1000)), -40));
  }
  ExpectMatches(v, "single bucket");
}

TEST_P(SketchCrossCheck, Infinities) {
  Rng rng(8);
  std::vector<double> v(2000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 7 == 0 ? (i % 2 == 0 ? kInf : -kInf) : rng.NextGaussian();
  }
  ExpectMatches(v, "+-inf among finite values");
  ExpectMatches(std::vector<double>(9, -kInf), "all -inf");
}

TEST_P(SketchCrossCheck, TinyInputs) {
  for (std::size_t n : {1, 2, 3, 7}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(n - i) * 0.37;
    }
    ExpectMatches(v, "tiny");
  }
}

TEST_P(SketchCrossCheck, ManyChunks) {
  // 2^16 values per histogram chunk: this input spans five chunks when the
  // pool has at least five threads.
  Rng rng(9);
  std::vector<double> v(5 * 65536 + 17);
  for (double& x : v) {
    const int exponent = static_cast<int>(rng.NextBounded(40)) - 20;
    x = rng.NextGaussian() * std::ldexp(1.0, exponent);
  }
  ExpectMatches(v, "many chunks");
}

INSTANTIATE_TEST_SUITE_P(Threads, SketchCrossCheck, ::testing::Values(1, 8));

}  // namespace
}  // namespace mgardp
