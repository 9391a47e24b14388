// Golden plans for every planner entry point: Plan (theory, snorm,
// E-MGARD), PlanRefinement, PlanConstrained with caps, PlanWithinBudget,
// Progression, OracleMinPlan and PlanHybrid, on two seeded 17^3 fields
// across the relative tolerance ladder 1e-9 .. 1e-1. Each line pins the
// prefix, the byte count and the exact bits of the estimated error, so a
// planner rewrite that changes any choice or any floating-point result is
// caught. To update deliberately, replace kGoldenPlans with the block the
// failing test prints.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/hybrid.h"
#include "models/training_data.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/dataset.h"
#include "sim/warpx.h"

namespace mgardp {
namespace {

extern const char* const kGoldenPlans[];

std::string Join(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(v[i]);
  }
  return out;
}

std::string Line(const std::string& tag, const RetrievalPlan& plan) {
  char est[64];
  std::snprintf(est, sizeof(est), "%a", plan.estimated_error);
  return tag + " p=" + Join(plan.prefix) +
         " B=" + std::to_string(plan.total_bytes) + " e=" + est;
}

std::string Line(const std::string& tag, const Result<RetrievalPlan>& plan) {
  return plan.ok() ? Line(tag, plan.value())
                   : tag + " error=" + plan.status().ToString();
}

// The greedy fetch order as "level+count" increments.
std::string ProgressionLine(const std::string& tag,
                            const std::vector<std::vector<int>>& states) {
  std::string out = tag + " n=" + std::to_string(states.size());
  for (std::size_t s = 1; s < states.size(); ++s) {
    for (std::size_t l = 0; l < states[s].size(); ++l) {
      if (states[s][l] != states[s - 1][l]) {
        out += " " + std::to_string(l) + "+" +
               std::to_string(states[s][l] - states[s - 1][l]);
      }
    }
  }
  return out;
}

class PlannerGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions wopts;
    wopts.dims = Dims3{17, 17, 17};
    wopts.num_timesteps = 4;
    const FieldSeries series = GenerateWarpX(wopts, WarpXField::kEx);
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(2);
    copts.ladder_points = 4;
    auto records = CollectRecords(series, {0, 1, 2}, copts);
    records.status().Abort("collect");

    DMgardConfig dconfig;
    dconfig.hidden_width = 16;
    dconfig.train.epochs = 30;
    dconfig.train.batch_size = 16;
    dconfig.train.learning_rate = 1e-3;
    auto dmodel = DMgardModel::TrainModel(records.value(), dconfig);
    dmodel.status().Abort("train D");
    dmgard_ = new DMgardModel(std::move(dmodel).value());

    EMgardConfig econfig;
    econfig.train.epochs = 30;
    econfig.train.learning_rate = 1e-3;
    auto emodel = EMgardModel::TrainModel(records.value(), econfig);
    emodel.status().Abort("train E");
    emgard_ = new EMgardModel(std::move(emodel).value());

    // The golden pipeline field (GoldenTest) and a Gray-Scott field.
    fields_ = new std::vector<RefactoredField>();
    const Array3Dd warpx =
        WarpXSimulator(Dims3{17, 17, 17}).Field(WarpXField::kEx, 5);
    GrayScottDatasetOptions gopts;
    gopts.dims = Dims3{17, 17, 17};
    gopts.num_timesteps = 1;
    const Array3Dd gray_scott = GenerateGrayScott(gopts)[1].frames[0];
    for (const Array3Dd* data : {&warpx, &gray_scott}) {
      auto field = Refactorer().Refactor(*data);
      field.status().Abort("refactor");
      fields_->push_back(std::move(field).value());
    }
  }

  static void TearDownTestSuite() {
    delete fields_;
    delete emgard_;
    delete dmgard_;
  }

  static std::vector<std::string> PlanLines();

  static DMgardModel* dmgard_;
  static EMgardModel* emgard_;
  static std::vector<RefactoredField>* fields_;
};

DMgardModel* PlannerGoldenTest::dmgard_ = nullptr;
EMgardModel* PlannerGoldenTest::emgard_ = nullptr;
std::vector<RefactoredField>* PlannerGoldenTest::fields_ = nullptr;

std::vector<std::string> PlannerGoldenTest::PlanLines() {
  std::vector<std::string> lines;
  TheoryEstimator theory;
  SNormEstimator snorm;
  LearnedConstantsEstimator learned(emgard_);
  const std::vector<const ErrorEstimator*> estimators = {&theory, &snorm,
                                                         &learned};
  const std::vector<const ErrorEstimator*> greedy = {&theory, &learned};
  const std::vector<double> ladder = SubsampledRelativeErrorBounds(1);

  for (std::size_t f = 0; f < fields_->size(); ++f) {
    const RefactoredField& field = (*fields_)[f];
    const std::string fid = "f" + std::to_string(f);
    const double range = field.data_summary.range();
    const int L = field.num_levels();
    auto tag = [&](const char* planner, const ErrorEstimator* est,
                   const std::string& point) {
      return std::string(planner) + "/" +
             (est != nullptr ? est->name() : std::string("-")) + " " + fid +
             " " + point;
    };

    for (const ErrorEstimator* est : estimators) {
      Reconstructor rec(est);
      for (std::size_t t = 0; t < ladder.size(); ++t) {
        lines.push_back(Line(tag("plan", est, "t" + std::to_string(t)),
                             rec.Plan(field, ladder[t] * range)));
      }
    }

    std::vector<int> caps(L);
    for (int l = 0; l < L; ++l) {
      caps[l] = field.num_planes - 7 * l;
    }
    const std::vector<int> have(L, 2);
    for (const ErrorEstimator* est : greedy) {
      Reconstructor rec(est);
      // A session tightening loose to tight, each step from the last.
      std::vector<int> session(L, 0);
      for (std::size_t t = ladder.size(); t-- > 0;) {
        auto refined = rec.PlanRefinement(field, session, ladder[t] * range);
        lines.push_back(
            Line(tag("refine", est, "t" + std::to_string(t)), refined));
        if (refined.ok()) {
          session = refined.value().prefix;
        }
      }
      for (std::size_t t = 0; t < ladder.size(); ++t) {
        lines.push_back(
            Line(tag("constrained", est, "t" + std::to_string(t)),
                 PlanConstrained(field, *est, ladder[t] * range, have, caps)));
      }
      const std::size_t total = MakeSizeInterpreter(field).TotalBytes(
          std::vector<int>(L, field.num_planes));
      for (double share : {0.0, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0}) {
        const std::size_t budget =
            static_cast<std::size_t>(share * static_cast<double>(total));
        lines.push_back(
            Line(tag("budget", est, "b" + std::to_string(budget)),
                 rec.PlanWithinBudget(field, budget)));
      }
      lines.push_back(
          ProgressionLine(tag("progression", est, "all"),
                          rec.Progression(field)));
    }

    for (std::size_t t = 0; t < ladder.size(); ++t) {
      const std::string point = "t" + std::to_string(t);
      lines.push_back(Line(tag("oracle-min", nullptr, point),
                           OracleMinPlan(field, ladder[t] * range)));
      RetrievalPlan warm;
      auto hybrid =
          PlanHybrid(field, ladder[t] * range, *dmgard_, learned, &warm);
      lines.push_back(Line(tag("hybrid", &learned, point), hybrid));
      lines.push_back(Line(tag("hybrid-warm", &learned, point), warm));
    }
  }
  return lines;
}

TEST_F(PlannerGoldenTest, EveryPlannerReproducesItsGoldenPlans) {
  const std::vector<std::string> actual = PlanLines();
  std::vector<std::string> expected;
  for (const char* const* line = kGoldenPlans; *line != nullptr; ++line) {
    expected.emplace_back(*line);
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::max(actual.size(), expected.size());
       ++i) {
    const std::string a = i < actual.size() ? actual[i] : "<missing>";
    const std::string e = i < expected.size() ? expected[i] : "<missing>";
    if (a != e) {
      ++mismatches;
      ADD_FAILURE() << "line " << i << "\n  expected: " << e
                    << "\n  actual:   " << a;
    }
  }
  if (mismatches > 0) {
    std::ostringstream block;
    for (const std::string& a : actual) {
      block << "    \"" << a << "\",\n";
    }
    std::printf("actual plans:\n%s", block.str().c_str());
  }
}

// Recorded from the per-candidate Estimate planner before the table-driven
// planner replaced it.
const char* const kGoldenPlans[] = {
    "plan/theory f0 t0 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "plan/theory f0 t1 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "plan/theory f0 t2 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "plan/theory f0 t3 p=32,32,32,30,27 B=9850 e=0x1.0f911e7241p-17",
    "plan/theory f0 t4 p=32,32,32,26,22 B=7366 e=0x1.50563c3e3416p-14",
    "plan/theory f0 t5 p=30,29,28,22,19 B=5695 e=0x1.a722dade2d27ap-11",
    "plan/theory f0 t6 p=26,25,22,19,16 B=4130 e=0x1.0a8dbabd451bp-7",
    "plan/theory f0 t7 p=24,24,21,16,12 B=2516 e=0x1.4c1357bbfb78ep-4",
    "plan/theory f0 t8 p=20,17,16,13,9 B=1434 e=0x1.9ba0c627b1f87p-1",
    "plan/snorm f0 t0 p=32,32,32,32,32 B=12305 e=0x1.1920d5a2ffe9bp-26",
    "plan/snorm f0 t1 p=28,29,30,30,30 B=11178 e=0x1.48ca578fa98b6p-24",
    "plan/snorm f0 t2 p=26,26,28,27,26 B=9072 e=0x1.ab3c39e8059f4p-21",
    "plan/snorm f0 t3 p=22,23,25,23,23 B=7413 e=0x1.0caed5c31ee4dp-17",
    "plan/snorm f0 t4 p=18,19,20,20,20 B=5794 e=0x1.5294fc35dc664p-14",
    "plan/snorm f0 t5 p=15,16,17,17,16 B=3848 e=0x1.a23a246169577p-11",
    "plan/snorm f0 t6 p=12,12,14,13,13 B=2427 e=0x1.00b3d7001d338p-7",
    "plan/snorm f0 t7 p=7,9,10,10,9 B=1081 e=0x1.4c0ff0b039424p-4",
    "plan/snorm f0 t8 p=5,6,6,5,4 B=230 e=0x1.9c09d032f4d48p-1",
    "plan/e-mgard f0 t0 p=32,32,32,32,32 B=12305 e=0x1.53b5f724de33ap-26",
    "plan/e-mgard f0 t1 p=32,30,32,31,26 B=9464 e=0x1.5b05533817061p-24",
    "plan/e-mgard f0 t2 p=28,29,30,29,22 B=7549 e=0x1.b49752247476bp-21",
    "plan/e-mgard f0 t3 p=24,26,28,24,19 B=5825 e=0x1.0e407bfb046cep-17",
    "plan/e-mgard f0 t4 p=21,20,22,21,16 B=4254 e=0x1.55200632318a4p-14",
    "plan/e-mgard f0 t5 p=15,17,19,17,13 B=2826 e=0x1.a480cb96a9514p-11",
    "plan/e-mgard f0 t6 p=13,15,15,15,9 B=1547 e=0x1.09dc0816027bdp-7",
    "plan/e-mgard f0 t7 p=9,12,11,11,6 B=766 e=0x1.4cff95a8fc5c4p-4",
    "plan/e-mgard f0 t8 p=5,7,8,7,3 B=280 e=0x1.95f52cc46c323p-1",
    "refine/theory f0 t8 p=21,20,17,13,9 B=1462 e=0x1.5caa7dd62b9c2p-1",
    "refine/theory f0 t7 p=24,24,21,16,12 B=2516 e=0x1.4c1357bbfb78ep-4",
    "refine/theory f0 t6 p=28,27,25,20,16 B=4261 e=0x1.5054aa1c03ad3p-8",
    "refine/theory f0 t5 p=32,30,28,23,19 B=5780 e=0x1.4de486d7be834p-11",
    "refine/theory f0 t4 p=32,32,32,26,22 B=7366 e=0x1.50563c3e3416p-14",
    "refine/theory f0 t3 p=32,32,32,32,27 B=10004 e=0x1.e2a54bc344p-18",
    "refine/theory f0 t2 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "refine/theory f0 t1 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "refine/theory f0 t0 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "constrained/theory f0 t0 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t1 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t2 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t3 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t4 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t5 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t6 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t7 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "constrained/theory f0 t8 p=32,25,18,11,4 B=810 e=0x1.c8e56e2a02427p+3",
    "budget/theory f0 b0 p=0,0,0,0,0 B=0 e=0x1.19ac28fb4a104p+13",
    "budget/theory f0 b12 p=6,0,0,0,0 B=12 e=0x1.201c81f694208p+12",
    "budget/theory f0 b123 p=10,9,7,0,0 B=122 e=0x1.ccbc07c5b409p+8",
    "budget/theory f0 b615 p=18,16,13,9,5 B=615 e=0x1.569d01e8b7a9ep+3",
    "budget/theory f0 b2461 p=29,27,25,18,11 B=2461 e=0x1.ea651a972fffep-4",
    "budget/theory f0 b6152 p=32,32,32,27,19 B=6152 e=0x1.e4ab8d4b375cp-12",
    "budget/theory f0 b12305 p=32,32,32,32,32 B=12305 e=0x1.6f2b551a736p-18",
    "progression/theory f0 all n=140 0+2 1+3 0+3 0+1 2+3 0+1 1+3 1+1 1+1 2+2 0+2 2+1 3+3 1+1 3+1 2+1 0+2 3+1 2+1 1+1 0+1 1+1 2+1 0+1 1+1 2+1 4+3 0+1 4+1 1+1 3+1 3+1 2+1 0+1 3+1 2+1 1+1 4+1 2+1 1+1 3+1 4+1 0+2 0+1 2+1 1+1 3+1 1+1 4+1 2+1 1+1 3+1 0+1 0+1 4+1 2+1 1+1 3+1 2+1 4+1 0+1 1+1 3+1 2+1 0+1 1+1 3+1 4+1 2+1 0+1 0+1 3+1 2+1 4+1 1+1 3+1 2+1 1+1 4+1 1+1 3+1 2+1 4+1 1+1 0+2 3+1 2+1 4+1 1+1 3+1 2+1 0+1 0+1 4+1 1+1 3+1 2+1 4+1 0+1 1+1 3+1 2+1 0+1 4+1 1+1 3+1 2+1 1+1 4+1 3+1 2+1 0+2 4+1 3+1 1+1 2+1 1+1 2+1 4+1 3+1 4+1 3+1 2+2 4+1 3+1 4+1 3+1 4+1 3+1 3+1 4+1 4+1 3+2 4+1 4+1 4+1 4+1 4+1 4+1",
    "refine/e-mgard f0 t8 p=6,7,8,7,3 B=282 e=0x1.90ced49eda4f2p-1",
    "refine/e-mgard f0 t7 p=9,12,13,11,6 B=794 e=0x1.1b701bb0f6dc8p-4",
    "refine/e-mgard f0 t6 p=14,16,17,15,9 B=1581 e=0x1.d05a1e7e906cap-8",
    "refine/e-mgard f0 t5 p=18,20,21,18,13 B=2949 e=0x1.11bac19ac440cp-11",
    "refine/e-mgard f0 t4 p=22,24,24,22,16 B=4377 e=0x1.d3e70f7653dbdp-15",
    "refine/e-mgard f0 t3 p=24,27,28,25,19 B=5906 e=0x1.c92ba17ec0d85p-18",
    "refine/e-mgard f0 t2 p=30,30,32,29,22 B=7585 e=0x1.96b377f2e4cb9p-21",
    "refine/e-mgard f0 t1 p=32,32,32,32,26 B=9549 e=0x1.0373d2a485f5fp-24",
    "refine/e-mgard f0 t0 p=32,32,32,32,32 B=12305 e=0x1.53b5f724de33ap-26",
    "constrained/e-mgard f0 t0 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t1 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t2 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t3 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t4 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t5 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t6 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t7 p=32,25,18,11,4 B=810 e=0x1.7021a803983cdp-3",
    "constrained/e-mgard f0 t8 p=5,7,8,7,3 B=280 e=0x1.95f52cc46c323p-1",
    "budget/e-mgard f0 b0 p=0,0,0,0,0 B=0 e=0x1.d91d8104b5652p+3",
    "budget/e-mgard f0 b12 p=0,3,0,0,0 B=12 e=0x1.c1bf94955da78p+3",
    "budget/e-mgard f0 b123 p=2,3,6,5,0 B=122 e=0x1.fe524284e23b2p+0",
    "budget/e-mgard f0 b615 p=9,12,11,10,5 B=614 e=0x1.1fec5f368ea0dp-3",
    "budget/e-mgard f0 b2461 p=21,22,22,19,11 B=2460 e=0x1.79dfc27cf224ap-10",
    "budget/e-mgard f0 b6152 p=32,32,32,27,19 B=6152 e=0x1.779bc9ab1a3efp-18",
    "budget/e-mgard f0 b12305 p=32,32,32,32,32 B=12305 e=0x1.53b5f724de33ap-26",
    "progression/e-mgard f0 all n=138 3+3 2+3 3+1 3+1 1+3 0+2 2+3 1+3 2+1 2+1 1+1 3+1 3+1 0+3 0+1 4+3 1+1 2+1 4+1 0+1 3+1 1+1 2+1 3+1 2+1 4+1 1+1 1+1 3+1 2+1 4+1 0+2 2+1 1+1 3+1 4+1 1+1 0+2 2+1 3+1 0+1 2+1 4+1 1+1 3+1 0+1 2+1 1+1 3+1 4+1 0+1 2+1 1+1 3+1 2+1 4+1 0+1 1+1 3+1 1+1 2+1 4+1 3+1 2+1 1+1 0+3 4+1 3+1 2+1 1+1 4+1 3+1 1+1 2+1 0+1 0+1 4+1 3+1 2+1 1+1 0+1 4+1 2+1 3+1 1+1 0+1 3+1 1+1 4+1 2+1 0+2 2+1 3+1 1+1 4+1 3+1 2+1 1+1 4+1 2+1 1+1 3+1 4+1 0+2 1+1 3+1 2+1 4+1 2+1 1+1 3+1 0+1 0+1 4+1 1+1 3+1 4+1 2+2 0+1 0+1 3+1 1+1 4+1 1+1 3+1 4+1 0+2 4+1 3+1 3+1 4+1 4+1 4+1 4+1 4+1 4+1 4+1",
    "oracle-min/- f0 t0 p=32,32,32,32,32 B=12305 e=0x1.a250dc71p-27",
    "hybrid/e-mgard f0 t0 p=32,32,32,32,32 B=12305 e=0x1.53b5f724de33ap-26",
    "hybrid-warm/e-mgard f0 t0 p=31,31,22,30,28 B=10156 e=0x1.b465ea81feee7p-17",
    "oracle-min/- f0 t1 p=30,31,30,30,29 B=10728 e=0x1.5ca3c6901p-24",
    "hybrid/e-mgard f0 t1 p=32,32,32,31,26 B=9472 e=0x1.40a79886c0ec2p-24",
    "hybrid-warm/e-mgard f0 t1 p=30,31,23,30,26 B=9261 e=0x1.c3ecedbefdc95p-18",
    "oracle-min/- f0 t2 p=27,29,28,28,25 B=8733 e=0x1.b3b7c43aafp-21",
    "hybrid/e-mgard f0 t2 p=30,30,27,28,25 B=8729 e=0x1.7021a1c9fbe88p-21",
    "hybrid-warm/e-mgard f0 t2 p=30,30,23,28,25 B=8673 e=0x1.ce8fa63ee7e64p-18",
    "oracle-min/- f0 t3 p=24,25,26,23,22 B=7007 e=0x1.10722bf5ee8p-17",
    "hybrid/e-mgard f0 t3 p=30,29,23,26,24 B=8086 e=0x1.f2a0734b22338p-18",
    "hybrid-warm/e-mgard f0 t3 p=30,29,22,26,24 B=8072 e=0x1.cccbdb34c473dp-17",
    "oracle-min/- f0 t4 p=21,19,21,20,19 B=5385 e=0x1.548fcaaec32e4p-14",
    "hybrid/e-mgard f0 t4 p=22,24,20,22,17 B=4711 e=0x1.54ea5874924f7p-14",
    "hybrid-warm/e-mgard f0 t4 p=29,28,20,23,23 B=7377 e=0x1.cd34bf730bf97p-15",
    "oracle-min/- f0 t5 p=16,18,19,18,15 B=3594 e=0x1.a87d4c9c2c38p-11",
    "hybrid/e-mgard f0 t5 p=23,19,20,19,12 B=2711 e=0x1.aa715fbd6bd58p-11",
    "hybrid-warm/e-mgard f0 t5 p=27,26,20,20,22 B=6702 e=0x1.710c2ba1a53ecp-14",
    "oracle-min/- f0 t6 p=14,14,14,14,12 B=2204 e=0x1.08ae113c0f1a8p-7",
    "hybrid/e-mgard f0 t6 p=19,19,17,14,9 B=1526 e=0x1.0a82106aa461p-7",
    "hybrid-warm/e-mgard f0 t6 p=25,24,20,19,19 B=5322 e=0x1.1090d574d1285p-13",
    "oracle-min/- f0 t7 p=8,10,11,10,9 B=1101 e=0x1.4cbd4317b1877p-4",
    "hybrid/e-mgard f0 t7 p=18,18,15,10,6 B=794 e=0x1.4d2fa398a0722p-4",
    "hybrid-warm/e-mgard f0 t7 p=23,21,19,17,10 B=2016 e=0x1.95b8376fa1e9cp-9",
    "oracle-min/- f0 t8 p=6,7,8,6,6 B=442 e=0x1.9d87ca23a091ep-1",
    "hybrid/e-mgard f0 t8 p=7,6,8,7,3 B=280 e=0x1.9eae70cfbb28p-1",
    "hybrid-warm/e-mgard f0 t8 p=23,20,17,12,8 B=1219 e=0x1.52a64bd8d341cp-6",
    "plan/theory f1 t0 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "plan/theory f1 t1 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "plan/theory f1 t2 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "plan/theory f1 t3 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "plan/theory f1 t4 p=32,32,30,25,21 B=10054 e=0x1.4f819b17d83cp-18",
    "plan/theory f1 t5 p=30,32,27,21,17 B=7671 e=0x1.ac2e63009cc4p-15",
    "plan/theory f1 t6 p=30,31,23,20,13 B=5506 e=0x1.0eb91d461e9bep-11",
    "plan/theory f1 t7 p=24,26,20,15,10 B=3545 e=0x1.52a3f3d9f8bfbp-8",
    "plan/theory f1 t8 p=21,23,17,11,7 B=1994 e=0x1.a21bd1f4adbf6p-5",
    "plan/snorm f1 t0 p=32,32,32,32,32 B=16346 e=0x1.6baecdeb7c86fp-29",
    "plan/snorm f1 t1 p=30,32,30,29,28 B=13987 e=0x1.561193344a533p-28",
    "plan/snorm f1 t2 p=26,30,27,26,24 B=11605 e=0x1.b5998b97766fcp-25",
    "plan/snorm f1 t3 p=23,27,24,22,21 B=9701 e=0x1.12ebf080e5a1p-21",
    "plan/snorm f1 t4 p=13,23,19,19,18 B=7843 e=0x1.4f7a3490e06cap-18",
    "plan/snorm f1 t5 p=13,18,17,16,14 B=5536 e=0x1.aa3969e5dd40fp-15",
    "plan/snorm f1 t6 p=13,18,12,13,11 B=3718 e=0x1.0caeeb699c79cp-11",
    "plan/snorm f1 t7 p=11,12,9,9,7 B=1664 e=0x1.4caf35747d482p-8",
    "plan/snorm f1 t8 p=6,9,7,5,0 B=251 e=0x1.89520cec1f8f8p-5",
    "plan/e-mgard f1 t0 p=32,32,32,32,32 B=16346 e=0x1.d45c906cd7236p-30",
    "plan/e-mgard f1 t1 p=30,32,32,30,24 B=11999 e=0x1.5624bdf7fc822p-28",
    "plan/e-mgard f1 t2 p=30,32,29,27,20 B=9683 e=0x1.b9a08425f9d0cp-25",
    "plan/e-mgard f1 t3 p=26,28,24,23,17 B=7759 e=0x1.14cba4de40edfp-21",
    "plan/e-mgard f1 t4 p=23,26,22,18,14 B=5812 e=0x1.591343cd7fd64p-18",
    "plan/e-mgard f1 t5 p=13,23,20,16,10 B=3588 e=0x1.b0b7c14c9c957p-15",
    "plan/e-mgard f1 t6 p=13,18,14,12,7 B=1993 e=0x1.070748a808dc2p-11",
    "plan/e-mgard f1 t7 p=11,15,10,7,4 B=740 e=0x1.4f1eee776edacp-8",
    "plan/e-mgard f1 t8 p=6,8,5,4,0 B=169 e=0x1.8af9618a4ec21p-5",
    "refine/theory f1 t8 p=22,24,17,12,7 B=2077 e=0x1.497ddc7b7114cp-5",
    "refine/theory f1 t7 p=26,28,20,16,10 B=3634 e=0x1.1f5035641b91ep-8",
    "refine/theory f1 t6 p=30,32,24,20,13 B=5524 e=0x1.0620c0ac30d1ep-11",
    "refine/theory f1 t5 p=32,32,28,23,17 B=7843 e=0x1.29387f89b3bp-15",
    "refine/theory f1 t4 p=32,32,32,27,21 B=10236 e=0x1.08aabbd9efcp-18",
    "refine/theory f1 t3 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "refine/theory f1 t2 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "refine/theory f1 t1 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "refine/theory f1 t0 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "constrained/theory f1 t0 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t1 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t2 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t3 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t4 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t5 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t6 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t7 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "constrained/theory f1 t8 p=32,25,18,11,4 B=1242 e=0x1.6bbee66fbd3aap-3",
    "budget/theory f1 b0 p=0,0,0,0,0 B=0 e=0x1.77ec02a1472c6p+11",
    "budget/theory f1 b16 p=2,3,0,0,0 B=16 e=0x1.f247f81042572p+9",
    "budget/theory f1 b163 p=13,12,5,2,0 B=162 e=0x1.784a56aff7b5p+3",
    "budget/theory f1 b817 p=13,27,16,8,3 B=817 e=0x1.f41eff0eb710fp-2",
    "budget/theory f1 b3269 p=31,31,23,16,9 B=3269 e=0x1.f5f8db0422dbap-8",
    "budget/theory f1 b8173 p=32,32,32,26,17 B=8130 e=0x1.fedff92fd49p-16",
    "budget/theory f1 b16346 p=32,32,32,32,32 B=16346 e=0x1.fe343193167p-20",
    "progression/theory f1 all n=121 0+2 1+2 1+1 1+2 1+3 0+4 1+1 1+1 2+3 0+3 2+2 3+2 0+2 1+2 2+2 3+2 0+2 1+2 1+1 2+1 2+1 1+1 3+2 1+2 2+2 4+3 3+1 2+1 3+1 2+1 1+2 4+1 3+1 2+1 3+1 2+1 1+2 3+1 1+1 4+1 2+1 4+1 1+1 2+1 3+1 0+9 4+1 0+1 3+1 1+1 1+1 4+1 2+1 0+1 3+1 2+1 0+1 4+1 3+1 0+1 2+1 1+1 1+1 3+1 4+1 2+1 1+1 4+1 2+1 3+1 0+2 1+1 3+1 2+1 4+1 3+1 0+2 2+1 4+1 1+2 3+1 2+1 4+1 3+1 2+1 4+1 3+1 0+2 2+1 4+1 3+1 2+1 4+1 3+1 4+1 2+1 2+1 3+1 4+1 3+1 4+1 2+1 2+1 3+1 4+1 3+1 4+1 3+1 4+1 3+1 4+1 4+1 3+2 4+1 4+1 4+1 4+1 4+1 4+1 4+1",
    "refine/e-mgard f1 t8 p=6,10,5,4,0 B=177 e=0x1.2b2f9ddc01a91p-5",
    "refine/e-mgard f1 t7 p=11,16,11,7,4 B=758 e=0x1.338563a85f114p-8",
    "refine/e-mgard f1 t6 p=13,18,15,12,7 B=2007 e=0x1.f3ba6bd115821p-12",
    "refine/e-mgard f1 t5 p=13,24,20,16,10 B=3592 e=0x1.adcf82878fbc2p-15",
    "refine/e-mgard f1 t4 p=23,28,23,20,14 B=5988 e=0x1.c1ee86dee607bp-19",
    "refine/e-mgard f1 t3 p=26,30,26,23,17 B=7795 e=0x1.de582c0474d77p-22",
    "refine/e-mgard f1 t2 p=30,32,30,27,20 B=9697 e=0x1.af0b71ce88472p-25",
    "refine/e-mgard f1 t1 p=32,32,32,30,24 B=12003 e=0x1.512d953ab6b5fp-28",
    "refine/e-mgard f1 t0 p=32,32,32,32,32 B=16346 e=0x1.d45c906cd7236p-30",
    "constrained/e-mgard f1 t0 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t1 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t2 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t3 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t4 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t5 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t6 p=32,25,18,11,4 B=1242 e=0x1.0de435cb7f44ep-9",
    "constrained/e-mgard f1 t7 p=11,16,11,7,4 B=758 e=0x1.338563a85f114p-8",
    "constrained/e-mgard f1 t8 p=6,10,5,4,2 B=220 e=0x1.1cf3aeba91e73p-5",
    "budget/e-mgard f1 b0 p=0,0,0,0,0 B=0 e=0x1.1118190a98a93p+0",
    "budget/e-mgard f1 b16 p=0,4,0,0,0 B=16 e=0x1.005f7dec14824p-1",
    "budget/e-mgard f1 b163 p=10,10,6,2,0 B=162 e=0x1.b782695c70e15p-5",
    "budget/e-mgard f1 b817 p=15,18,14,7,4 B=816 e=0x1.18b43ada3a2f3p-8",
    "budget/e-mgard f1 b3269 p=14,27,21,17,9 B=3268 e=0x1.7297683f5dcd1p-14",
    "budget/e-mgard f1 b8173 p=32,32,32,26,17 B=8130 e=0x1.7199b5cf6b666p-22",
    "budget/e-mgard f1 b16346 p=32,32,32,32,32 B=16346 e=0x1.d45c906cd7236p-30",
    "progression/e-mgard f1 all n=120 1+2 1+1 1+2 0+2 1+3 3+2 1+1 2+3 2+2 1+1 0+4 3+2 2+2 2+1 2+1 0+3 1+2 4+3 3+2 0+2 1+2 1+1 3+1 2+2 1+1 4+1 3+1 2+1 0+2 3+1 2+1 3+1 1+2 2+1 4+1 3+1 4+1 2+1 3+1 4+1 1+2 2+1 3+1 2+1 4+1 3+1 1+2 4+1 3+1 1+1 2+1 2+1 3+1 4+1 1+1 2+1 3+1 4+1 1+1 2+1 1+1 3+1 0+9 4+1 2+1 0+1 3+1 4+1 2+1 1+1 3+1 1+1 4+1 0+1 2+1 3+1 0+1 1+1 4+1 2+1 0+1 3+1 1+1 4+1 2+1 3+1 4+1 1+2 2+1 3+1 0+2 4+1 2+1 3+1 4+1 3+1 0+2 2+1 2+1 4+1 3+1 3+1 4+1 2+2 4+1 3+1 0+2 3+1 4+1 4+1 3+2 4+1 4+1 4+1 4+1 4+1 4+1 4+1 4+1",
    "oracle-min/- f1 t0 p=32,32,32,32,32 B=16346 e=0x1.470934214p-30",
    "hybrid/e-mgard f1 t0 p=32,32,32,32,32 B=16346 e=0x1.d45c906cd7236p-30",
    "hybrid-warm/e-mgard f1 t0 p=32,32,0,32,0 B=2385 e=0x1.bc7343e19dccfp-4",
    "oracle-min/- f1 t1 p=30,32,31,29,27 B=13477 e=0x1.5cbd2ef8p-28",
    "hybrid/e-mgard f1 t1 p=32,32,32,32,24 B=12157 e=0x1.2597db2a87572p-28",
    "hybrid-warm/e-mgard f1 t1 p=32,32,0,32,0 B=2385 e=0x1.bc7343e19dccfp-4",
    "oracle-min/- f1 t2 p=28,32,27,27,23 B=11173 e=0x1.b59d7c008p-25",
    "hybrid/e-mgard f1 t2 p=31,32,30,32,20 B=10084 e=0x1.78b39895af748p-25",
    "hybrid-warm/e-mgard f1 t2 p=31,32,0,32,0 B=2383 e=0x1.bc7343e68f8efp-4",
    "oracle-min/- f1 t3 p=26,28,25,22,20 B=9218 e=0x1.154c144eb8p-21",
    "hybrid/e-mgard f1 t3 p=28,32,26,32,17 B=8500 e=0x1.770c25ef4cca6p-22",
    "hybrid-warm/e-mgard f1 t3 p=28,32,0,32,0 B=2377 e=0x1.bc73440ee0231p-4",
    "oracle-min/- f1 t4 p=21,26,19,19,17 B=7363 e=0x1.5aa3fe8c098p-18",
    "hybrid/e-mgard f1 t4 p=27,32,23,32,14 B=6936 e=0x1.68e842db4267cp-19",
    "hybrid-warm/e-mgard f1 t4 p=27,32,0,32,0 B=2375 e=0x1.bc734460e527bp-4",
    "oracle-min/- f1 t5 p=13,22,17,17,13 B=5121 e=0x1.a88712060042p-15",
    "hybrid/e-mgard f1 t5 p=26,32,19,32,10 B=4868 e=0x1.6ec13be0634c6p-15",
    "hybrid-warm/e-mgard f1 t5 p=26,32,0,32,0 B=2373 e=0x1.bc73449c2b1b3p-4",
    "oracle-min/- f1 t6 p=13,18,15,12,10 B=3190 e=0x1.0a0a34b42e5dcp-11",
    "hybrid/e-mgard f1 t6 p=24,32,15,32,7 B=3625 e=0x1.7a96d292d7ff6p-12",
    "hybrid-warm/e-mgard f1 t6 p=24,32,0,32,0 B=2369 e=0x1.bc73477344bb9p-4",
    "oracle-min/- f1 t7 p=11,16,12,8,7 B=1645 e=0x1.4f67e93cfff23p-8",
    "hybrid/e-mgard f1 t7 p=21,32,9,32,3 B=2603 e=0x1.45d459135724ep-8",
    "hybrid-warm/e-mgard f1 t7 p=21,32,0,32,0 B=2363 e=0x1.bc735d459effep-4",
    "oracle-min/- f1 t8 p=2,10,7,4,4 B=456 e=0x1.9e0f83630a5b5p-5",
    "hybrid/e-mgard f1 t8 p=20,32,5,32,0 B=2422 e=0x1.7db3c253637c8p-6",
    "hybrid-warm/e-mgard f1 t8 p=20,32,0,32,0 B=2361 e=0x1.bc737d067d0f7p-4",
    nullptr,
};

}  // namespace
}  // namespace mgardp
