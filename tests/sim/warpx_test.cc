#include "sim/warpx.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/parallel.h"
#include "util/stats.h"

namespace mgardp {
namespace {

TEST(WarpXTest, FieldNames) {
  EXPECT_EQ(WarpXFieldName(WarpXField::kBx), "B_x");
  EXPECT_EQ(WarpXFieldName(WarpXField::kEx), "E_x");
  EXPECT_EQ(WarpXFieldName(WarpXField::kJx), "J_x");
}

TEST(WarpXTest, DeterministicForSeed) {
  WarpXSimulator a(Dims3{17, 17, 17}), b(Dims3{17, 17, 17});
  Array3Dd fa = a.Field(WarpXField::kEx, 5);
  Array3Dd fb = b.Field(WarpXField::kEx, 5);
  EXPECT_EQ(MaxAbsError(fa.vector(), fb.vector()), 0.0);
}

TEST(WarpXTest, FieldIsBitIdenticalAcrossThreadCounts) {
  const int ambient = GlobalThreadCount();
  WarpXSimulator sim(Dims3{33, 17, 9});
  for (WarpXField field : {WarpXField::kBx, WarpXField::kEx, WarpXField::kJx}) {
    SetGlobalThreadCount(1);
    const Array3Dd serial = sim.Field(field, 5);
    SetGlobalThreadCount(8);
    const Array3Dd threaded = sim.Field(field, 5);
    EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                          serial.size() * sizeof(double)),
              0)
        << WarpXFieldName(field);
  }
  SetGlobalThreadCount(ambient);
}

TEST(WarpXTest, FieldsEvolveOverTime) {
  WarpXSimulator sim(Dims3{17, 17, 17});
  Array3Dd t0 = sim.Field(WarpXField::kEx, 0);
  Array3Dd t8 = sim.Field(WarpXField::kEx, 8);
  EXPECT_GT(MaxAbsError(t0.vector(), t8.vector()), 1e-6);
}

TEST(WarpXTest, AmplitudeScalesWithLaserAmplitude) {
  WarpXParams weak, strong;
  weak.laser_amplitude = 1.0;
  strong.laser_amplitude = 20.0;
  WarpXSimulator ws(Dims3{17, 17, 17}, weak);
  WarpXSimulator ss(Dims3{17, 17, 17}, strong);
  const int t = 6;  // pulse inside the domain
  const double weak_max =
      Summarize(ws.Field(WarpXField::kEx, t).vector()).abs_max;
  const double strong_max =
      Summarize(ss.Field(WarpXField::kEx, t).vector()).abs_max;
  EXPECT_GT(strong_max, 5.0 * weak_max);
}

TEST(WarpXTest, DensityChangesWakeStructure) {
  // Higher density -> shorter plasma wavelength -> different field values.
  WarpXParams low, high;
  low.electron_density = 1.0;
  high.electron_density = 16.0;
  WarpXSimulator ls(Dims3{33, 9, 9}, low);
  WarpXSimulator hs(Dims3{33, 9, 9}, high);
  Array3Dd lf = ls.Field(WarpXField::kJx, 8);
  Array3Dd hf = hs.Field(WarpXField::kJx, 8);
  EXPECT_GT(MaxAbsError(lf.vector(), hf.vector()), 1e-9);
  // Higher density current is stronger (J ~ n_e).
  EXPECT_GT(Summarize(hf.vector()).abs_max, Summarize(lf.vector()).abs_max);
}

TEST(WarpXTest, PulseEntersDomainFromLeft) {
  WarpXSimulator sim(Dims3{33, 9, 9});
  // Early: field energy concentrated near x = 0 half; nothing deep right.
  Array3Dd early = sim.Field(WarpXField::kEx, 3);
  double left = 0.0, right = 0.0;
  for (std::size_t i = 0; i < 33; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      for (std::size_t k = 0; k < 9; ++k) {
        (i < 16 ? left : right) += early(i, j, k) * early(i, j, k);
      }
    }
  }
  EXPECT_GT(left, right);
}

TEST(WarpXTest, SeedVariesPerturbation) {
  WarpXParams p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  WarpXSimulator a(Dims3{9, 9, 9}, p1), b(Dims3{9, 9, 9}, p2);
  Array3Dd fa = a.Field(WarpXField::kEx, 6);
  Array3Dd fb = b.Field(WarpXField::kEx, 6);
  EXPECT_GT(MaxAbsError(fa.vector(), fb.vector()), 0.0);
}

TEST(WarpXTest, AllFieldsFiniteEverywhere) {
  WarpXSimulator sim(Dims3{17, 17, 17});
  for (WarpXField f : {WarpXField::kBx, WarpXField::kEx, WarpXField::kJx}) {
    for (int t : {0, 10, 50}) {
      Array3Dd field = sim.Field(f, t);
      for (double v : field.vector()) {
        EXPECT_TRUE(std::isfinite(v));
      }
    }
  }
}

}  // namespace
}  // namespace mgardp
