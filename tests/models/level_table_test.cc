// Every separable estimator's LevelTable must reproduce its Estimate bit
// for bit, and a planner must choose the same plan from the table as from
// per-candidate Estimate calls.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "learning/serving.h"
#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/hybrid.h"
#include "models/training_data.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/warpx.h"
#include "util/rng.h"

namespace mgardp {
namespace {

// Forwards Estimate only, so planners fall back to per-candidate calls.
class ForwardingEstimator : public ErrorEstimator {
 public:
  explicit ForwardingEstimator(const ErrorEstimator* inner) : inner_(inner) {}
  double Estimate(const RefactoredField& field,
                  const std::vector<int>& prefix) const override {
    ++calls_;
    return inner_->Estimate(field, prefix);
  }
  std::string name() const override { return inner_->name(); }
  int calls() const { return calls_; }

 private:
  const ErrorEstimator* inner_;
  mutable int calls_ = 0;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class LevelTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions wopts;
    wopts.dims = Dims3{17, 17, 17};
    wopts.num_timesteps = 3;
    const FieldSeries series = GenerateWarpX(wopts, WarpXField::kEx);
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(2);
    copts.ladder_points = 4;
    auto records = CollectRecords(series, {0, 1}, copts);
    records.status().Abort("collect");
    EMgardConfig econfig;
    econfig.train.epochs = 10;
    econfig.train.learning_rate = 1e-3;
    auto emodel = EMgardModel::TrainModel(records.value(), econfig);
    emodel.status().Abort("train E");
    emgard_ = new EMgardModel(std::move(emodel).value());
    DMgardConfig dconfig;
    dconfig.hidden_width = 8;
    dconfig.train.epochs = 10;
    dconfig.train.batch_size = 16;
    auto dmodel = DMgardModel::TrainModel(records.value(), dconfig);
    dmodel.status().Abort("train D");
    dmgard_ = new DMgardModel(std::move(dmodel).value());

    auto field = Refactorer().Refactor(
        WarpXSimulator(Dims3{17, 17, 17}).Field(WarpXField::kEx, 2));
    field.status().Abort("refactor");
    field_ = new RefactoredField(std::move(field).value());
  }

  static void TearDownTestSuite() {
    delete field_;
    delete dmgard_;
    delete emgard_;
  }

  // Compares the table against Estimate at every prefix of a seeded
  // sample (entries in [-2, P + 2], so clamping is covered too) plus the
  // all-zero and all-full prefixes. Returns how many estimates were +inf.
  static int ExpectTableMatchesEstimate(const ErrorEstimator& est,
                                        const RefactoredField& field) {
    const LevelTable table = est.Table(field);
    EXPECT_FALSE(table.empty()) << est.name();
    const int L = field.num_levels();
    const int P = field.num_planes;
    std::vector<std::vector<int>> prefixes = {std::vector<int>(L, 0),
                                              std::vector<int>(L, P)};
    Rng rng(97);
    for (int i = 0; i < 10000; ++i) {
      std::vector<int> prefix(L);
      for (int& p : prefix) {
        p = static_cast<int>(rng.NextBounded(P + 5)) - 2;
      }
      prefixes.push_back(std::move(prefix));
    }
    int mismatches = 0;
    int infinite = 0;
    for (const std::vector<int>& prefix : prefixes) {
      const double expected = est.Estimate(field, prefix);
      const double actual = table.Estimate(prefix);
      infinite += std::isinf(expected) ? 1 : 0;
      if (!SameBits(expected, actual) && ++mismatches <= 5) {
        ADD_FAILURE() << est.name() << ": table " << actual
                      << " != Estimate " << expected;
      }
    }
    EXPECT_EQ(mismatches, 0) << est.name();
    return infinite;
  }

  static EMgardModel* emgard_;
  static DMgardModel* dmgard_;
  static RefactoredField* field_;
};

EMgardModel* LevelTableTest::emgard_ = nullptr;
DMgardModel* LevelTableTest::dmgard_ = nullptr;
RefactoredField* LevelTableTest::field_ = nullptr;

TEST_F(LevelTableTest, TheoryTableIsBitIdentical) {
  EXPECT_EQ(ExpectTableMatchesEstimate(TheoryEstimator(), *field_), 0);
  EXPECT_EQ(ExpectTableMatchesEstimate(TheoryEstimator(3.5), *field_), 0);
}

TEST_F(LevelTableTest, SNormTableIsBitIdentical) {
  EXPECT_EQ(ExpectTableMatchesEstimate(SNormEstimator(), *field_), 0);
}

TEST_F(LevelTableTest, IdealMatrixTableIsBitIdentical) {
  EXPECT_EQ(ExpectTableMatchesEstimate(IdealMatrixEstimator(), *field_), 0);
}

TEST_F(LevelTableTest, EMgardTableIsBitIdentical) {
  LearnedConstantsEstimator learned(emgard_);
  EXPECT_EQ(ExpectTableMatchesEstimate(learned, *field_), 0);
}

TEST_F(LevelTableTest, EMgardLevelThatFailsIsInfiniteOnBothPaths) {
  // A sketch of the wrong width makes level 2's batch fail: every prefix
  // that needs that level's constant estimates +inf either way.
  RefactoredField broken = *field_;
  broken.level_sketches[2].pop_back();
  LearnedConstantsEstimator learned(emgard_);
  ASSERT_FALSE(learned.TryEstimate(broken, std::vector<int>(5, 0)).ok());
  EXPECT_GT(ExpectTableMatchesEstimate(learned, broken), 0);
}

TEST_F(LevelTableTest, EMgardTableCoversFieldsDeeperThanTheModel) {
  // Five decomposition steps give one more level than the training
  // fields; the uncovered level contributes nothing on either path.
  RefactorOptions options;
  options.target_steps = 5;
  auto deep = Refactorer(options).Refactor(
      WarpXSimulator(Dims3{33, 33, 33}).Field(WarpXField::kEx, 2));
  ASSERT_TRUE(deep.ok());
  ASSERT_GT(deep.value().num_levels(), emgard_->num_levels());
  LearnedConstantsEstimator learned(emgard_);
  EXPECT_EQ(ExpectTableMatchesEstimate(learned, deep.value()), 0);
}

TEST_F(LevelTableTest, OracleIsNotSeparable) {
  Array3Dd original =
      WarpXSimulator(Dims3{17, 17, 17}).Field(WarpXField::kEx, 2);
  EXPECT_TRUE(OracleEstimator(&original).Table(*field_).empty());
}

TEST_F(LevelTableTest, FallbackPlansMatchTablePlans) {
  TheoryEstimator theory;
  LearnedConstantsEstimator learned(emgard_);
  const double range = field_->data_summary.range();
  for (const ErrorEstimator* est :
       std::vector<const ErrorEstimator*>{&theory, &learned}) {
    ForwardingEstimator fallback(est);
    Reconstructor table_rec(est);
    Reconstructor fallback_rec(&fallback);
    for (double rel : {1e-1, 1e-3, 1e-5, 1e-7}) {
      const double bound = rel * range;
      auto a = table_rec.Plan(*field_, bound);
      auto b = fallback_rec.Plan(*field_, bound);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().prefix, b.value().prefix);
      EXPECT_EQ(a.value().total_bytes, b.value().total_bytes);
      EXPECT_TRUE(SameBits(a.value().estimated_error,
                           b.value().estimated_error));
      auto ha = PlanHybrid(*field_, bound, *dmgard_, *est);
      auto hb = PlanHybrid(*field_, bound, *dmgard_, fallback);
      ASSERT_TRUE(ha.ok() && hb.ok());
      EXPECT_EQ(ha.value().prefix, hb.value().prefix);
      EXPECT_TRUE(SameBits(ha.value().estimated_error,
                           hb.value().estimated_error));
    }
    EXPECT_EQ(table_rec.Progression(*field_),
              fallback_rec.Progression(*field_));
    // The fallback really did plan through Estimate.
    EXPECT_GT(fallback.calls(), 0);
  }
}

TEST_F(LevelTableTest, VersionedEstimatorForwardsTheTable) {
  auto version = std::make_shared<learning::ModelVersion>();
  version->model_id = "warpx";
  version->version = 3;
  version->kind = learning::ModelKind::kEMgard;
  auto model = EMgardModel::Deserialize(emgard_->Serialize());
  ASSERT_TRUE(model.ok());
  version->emgard = std::make_shared<EMgardModel>(std::move(model).value());
  learning::VersionedEstimator versioned(version);
  EXPECT_EQ(ExpectTableMatchesEstimate(versioned, *field_), 0);
  const LevelTable direct =
      LearnedConstantsEstimator(emgard_).Table(*field_);
  const LevelTable forwarded = versioned.Table(*field_);
  ASSERT_EQ(forwarded.terms.size(), direct.terms.size());
  for (std::size_t l = 0; l < direct.terms.size(); ++l) {
    ASSERT_EQ(forwarded.terms[l].size(), direct.terms[l].size());
    for (std::size_t b = 0; b < direct.terms[l].size(); ++b) {
      EXPECT_TRUE(SameBits(forwarded.terms[l][b], direct.terms[l][b]));
    }
  }
  EXPECT_TRUE(SameBits(forwarded.scale, direct.scale));
}

TEST_F(LevelTableTest, FallbackMatchesTableForRefinementCapsAndBudgets) {
  TheoryEstimator theory;
  SNormEstimator snorm;
  LearnedConstantsEstimator learned(emgard_);
  const int L = field_->num_levels();
  const double range = field_->data_summary.range();
  std::vector<int> caps(L);
  for (int l = 0; l < L; ++l) {
    caps[l] = field_->num_planes - 5 * l;
  }
  const std::vector<int> have(L, 1);
  const std::size_t total = MakeSizeInterpreter(*field_).TotalBytes(
      std::vector<int>(L, field_->num_planes));
  auto expect_same = [](const Result<RetrievalPlan>& a,
                        const Result<RetrievalPlan>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) return;
    EXPECT_EQ(a.value().prefix, b.value().prefix);
    EXPECT_EQ(a.value().total_bytes, b.value().total_bytes);
    EXPECT_TRUE(
        SameBits(a.value().estimated_error, b.value().estimated_error));
  };
  for (const ErrorEstimator* est :
       std::vector<const ErrorEstimator*>{&theory, &snorm, &learned}) {
    SCOPED_TRACE(est->name());
    ForwardingEstimator fallback(est);
    Reconstructor table_rec(est);
    Reconstructor fallback_rec(&fallback);
    std::vector<int> session(L, 0);
    for (double rel : {1e-1, 1e-3, 1e-5, 1e-7}) {
      const double bound = rel * range;
      auto a = table_rec.PlanRefinement(*field_, session, bound);
      auto b = fallback_rec.PlanRefinement(*field_, session, bound);
      expect_same(a, b);
      if (a.ok()) session = a.value().prefix;
      expect_same(PlanConstrained(*field_, *est, bound, have, caps),
                  PlanConstrained(*field_, fallback, bound, have, caps));
    }
    for (double share : {0.0, 0.01, 0.1, 0.5, 1.0}) {
      const std::size_t budget =
          static_cast<std::size_t>(share * static_cast<double>(total));
      expect_same(table_rec.PlanWithinBudget(*field_, budget),
                  fallback_rec.PlanWithinBudget(*field_, budget));
    }
    EXPECT_GT(fallback.calls(), 0);
  }
}

}  // namespace
}  // namespace mgardp
