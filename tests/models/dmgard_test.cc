#include "models/dmgard.h"

#include "models/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "corrupt_blob.h"
#include "util/io.h"

namespace mgardp {
namespace {

// Shared fixture: collect a small record set once for all D-MGARD tests.
class DMgardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 17};
    opts.num_timesteps = 6;
    series_ = new FieldSeries(GenerateWarpX(opts, WarpXField::kJx));
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(3);
    auto result = CollectRecords(*series_, {0, 1, 2, 3}, copts);
    result.status().Abort("collect");
    records_ = new std::vector<RetrievalRecord>(std::move(result).value());

    DMgardConfig config;
    config.hidden_width = 24;
    config.train.epochs = 200;
    config.train.batch_size = 32;       // more optimizer steps per epoch
    config.train.learning_rate = 1e-3;  // faster for small test runs
    auto model = DMgardModel::TrainModel(*records_, config);
    model.status().Abort("train");
    model_ = new DMgardModel(std::move(model).value());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete records_;
    delete series_;
  }

  static FieldSeries* series_;
  static std::vector<RetrievalRecord>* records_;
  static DMgardModel* model_;
};

FieldSeries* DMgardTest::series_ = nullptr;
std::vector<RetrievalRecord>* DMgardTest::records_ = nullptr;
DMgardModel* DMgardTest::model_ = nullptr;

TEST_F(DMgardTest, TrainsWithFiveLevelChain) {
  EXPECT_EQ(model_->num_levels(), 5);
}

TEST_F(DMgardTest, PredictionsAreValidCounts) {
  for (const RetrievalRecord& r : *records_) {
    auto pred = model_->Predict(r.features, r.sketches, r.achieved_error);
    ASSERT_TRUE(pred.ok());
    ASSERT_EQ(pred.value().size(), 5u);
    for (int b : pred.value()) {
      EXPECT_GE(b, 0);
      EXPECT_LE(b, 32);
    }
  }
}

TEST_F(DMgardTest, PredictsTrainingSetReasonably) {
  // On its own training data the chain should usually be within a couple of
  // planes (the paper reports most predictions within 1 on held-out data).
  auto errors = PredictionErrors(*model_, *records_);
  ASSERT_TRUE(errors.ok());
  int total = 0, close = 0;
  for (const auto& per_level : errors.value()) {
    for (int e : per_level) {
      ++total;
      if (std::abs(e) <= 3) {
        ++close;
      }
    }
  }
  EXPECT_GT(close, total / 2);
}

TEST_F(DMgardTest, TighterErrorRequestsMorePlanesOnAverage) {
  const auto& r = records_->front();
  auto tight = model_->Predict(r.features, r.sketches, 1e-8);
  auto loose = model_->Predict(r.features, r.sketches, 1e-1);
  ASSERT_TRUE(tight.ok() && loose.ok());
  int tight_sum = 0, loose_sum = 0;
  for (int b : tight.value()) {
    tight_sum += b;
  }
  for (int b : loose.value()) {
    loose_sum += b;
  }
  EXPECT_GT(tight_sum, loose_sum);
}

TEST_F(DMgardTest, SerializationPreservesPredictions) {
  const std::string blob = model_->Serialize();
  auto restored = DMgardModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  const auto& r = records_->front();
  auto a = model_->PredictRaw(r.features, r.sketches, r.achieved_error);
  auto b = restored.value().PredictRaw(r.features, r.sketches,
                                        r.achieved_error);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t l = 0; l < a.value().size(); ++l) {
    EXPECT_DOUBLE_EQ(a.value()[l], b.value()[l]);
  }
}

TEST_F(DMgardTest, DamagedBlobsFailWithStatus) {
  // Structural bytes: the magic (0-3) and the level count (17-20).
  ExpectCorruptBlobsFailCleanly(
      model_->Serialize(),
      [](const std::string& b) { return DMgardModel::Deserialize(b); },
      {0, 1, 2, 3, 17, 18, 19, 20});
}

TEST_F(DMgardTest, RejectsWrongFeatureCount) {
  EXPECT_FALSE(
      model_->Predict({1.0, 2.0}, records_->front().sketches, 1e-3).ok());
}

// Regression for the deduplicated chained-inference loop: Predict must be
// exactly round+clamp of PredictRaw — a single chain drives both, so the
// rounded counts fed forward through the levels cannot drift between the
// two surfaces.
TEST_F(DMgardTest, PredictIsRoundClampOfPredictRaw) {
  const double planes = static_cast<double>(model_->config().num_planes);
  for (const RetrievalRecord& r : *records_) {
    auto raw = model_->PredictRaw(r.features, r.sketches, r.achieved_error);
    auto rounded = model_->Predict(r.features, r.sketches, r.achieved_error);
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(rounded.ok());
    ASSERT_EQ(raw.value().size(), rounded.value().size());
    for (std::size_t l = 0; l < raw.value().size(); ++l) {
      const int expected = static_cast<int>(
          std::clamp(std::round(raw.value()[l]), 0.0, planes));
      EXPECT_EQ(rounded.value()[l], expected);
    }
  }
}

// Batched chained inference must be bit-identical to one-at-a-time calls:
// each row advances through the level chain with the same scaler + network
// math and the same rounded feedback.
TEST_F(DMgardTest, BatchPredictionMatchesSequentialExactly) {
  std::vector<DMgardModel::BatchRequest> requests;
  for (const RetrievalRecord& r : *records_) {
    requests.push_back({&r.features, &r.sketches, r.achieved_error});
    if (requests.size() == 7) {  // odd size: exercises a partial tail too
      break;
    }
  }
  auto batch_raw = model_->PredictRawBatch(requests);
  auto batch_int = model_->PredictBatch(requests);
  ASSERT_TRUE(batch_raw.ok());
  ASSERT_TRUE(batch_int.ok());
  ASSERT_EQ(batch_raw.value().size(), requests.size());
  ASSERT_EQ(batch_int.value().size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto raw = model_->PredictRaw(*requests[i].features,
                                  *requests[i].sketches,
                                  requests[i].target_abs_error);
    auto rounded = model_->Predict(*requests[i].features,
                                   *requests[i].sketches,
                                   requests[i].target_abs_error);
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(rounded.ok());
    EXPECT_EQ(batch_raw.value()[i], raw.value());  // exact, not approximate
    EXPECT_EQ(batch_int.value()[i], rounded.value());
  }
}

TEST(DMgardValidationTest, RejectsEmptyRecords) {
  EXPECT_FALSE(DMgardModel::TrainModel({}).ok());
}

TEST(DMgardValidationTest, UntrainedModelRefusesToPredict) {
  DMgardModel model;
  std::vector<double> f(kNumDataFeatures, 0.0);
  EXPECT_FALSE(model.Predict(f, {}, 1e-3).ok());
}

TEST(DMgardValidationTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DMgardModel::Deserialize("garbage").ok());
}

TEST(DMgardValidationTest, RejectsImpossibleLevelCounts) {
  for (std::int32_t levels : {-1, 1 << 30}) {
    BinaryWriter w;
    w.Put<std::uint32_t>(0x444D4752);
    w.Put<std::uint64_t>(24);
    w.Put<std::uint8_t>(1);
    w.Put<std::int32_t>(32);
    w.Put<std::int32_t>(levels);
    EXPECT_FALSE(DMgardModel::Deserialize(w.TakeBuffer()).ok()) << levels;
  }
}

TEST(DMgardAblationTest, IndependentModeAlsoTrains) {
  WarpXDatasetOptions opts;
  opts.dims = Dims3{9, 9, 9};
  opts.num_timesteps = 2;
  FieldSeries series = GenerateWarpX(opts, WarpXField::kEx);
  CollectOptions copts;
  copts.rel_bounds = SubsampledRelativeErrorBounds(1);
  auto records = CollectRecords(series, {0, 1}, copts);
  ASSERT_TRUE(records.ok());
  DMgardConfig config;
  config.chained = false;
  config.hidden_width = 8;
  config.train.epochs = 5;
  auto model = DMgardModel::TrainModel(records.value(), config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto pred = model.value().Predict(records.value().front().features,
                                    records.value().front().sketches, 1e-4);
  ASSERT_TRUE(pred.ok());
}

}  // namespace
}  // namespace mgardp
