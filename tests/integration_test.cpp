// integration_test.cpp — cross-module flows: train -> extract -> serialize ->
// search; the full pipeline a downstream user runs.
#include <gtest/gtest.h>

#include "baseline/majority.hpp"
#include "core/extractor.hpp"
#include "index/flat.hpp"
#include "sdl/serialization.hpp"

namespace baseline = tsdx::baseline;
namespace core = tsdx::core;
namespace data = tsdx::data;
namespace ix = tsdx::index;
namespace sdl = tsdx::sdl;
namespace sim = tsdx::sim;

namespace {

core::ModelConfig test_config() {
  core::ModelConfig cfg = core::ModelConfig::tiny();  // 4 frames, 32 px
  return cfg;
}

sim::RenderConfig render_for(const core::ModelConfig& cfg) {
  sim::RenderConfig r;
  r.height = r.width = cfg.image_size;
  r.frames = cfg.frames;
  return r;
}

/// Shared trained extractor: training once keeps the suite fast.
struct TrainedFixture {
  data::Dataset train, val, test;
  std::unique_ptr<core::ScenarioExtractor> extractor;
  core::TrainResult result;

  TrainedFixture() {
    const core::ModelConfig cfg = test_config();
    const data::Dataset ds =
        data::Dataset::synthesize(render_for(cfg), 160, 101);
    auto splits = ds.split(0.7, 0.15);
    train = std::move(splits.train);
    val = std::move(splits.val);
    test = std::move(splits.test);

    extractor = std::make_unique<core::ScenarioExtractor>(cfg, 202);
    core::TrainConfig tc;
    tc.epochs = 12;
    tc.batch_size = 8;
    result = extractor->train(train, val, tc);
  }
};

TrainedFixture& trained() {
  static TrainedFixture fixture;
  return fixture;
}

}  // namespace

TEST(IntegrationTest, TrainingConverges) {
  const auto& f = trained();
  ASSERT_EQ(f.result.history.size(), 12u);
  EXPECT_LT(f.result.last().train_loss,
            f.result.history.front().train_loss * 0.8);
}

TEST(IntegrationTest, BeatsMajorityBaselineOnMeanAccuracy) {
  auto& f = trained();
  f.extractor->model().set_training(false);
  const data::SlotMetrics model_metrics =
      core::Trainer::evaluate(f.extractor->model(), f.test);

  baseline::MajorityPredictor majority;
  majority.fit(f.train);
  const data::SlotMetrics majority_metrics = majority.evaluate(f.test);

  EXPECT_GT(model_metrics.mean_accuracy(),
            majority_metrics.mean_accuracy() + 0.03)
      << "trained extractor should clear the majority floor";
}

TEST(IntegrationTest, EnvironmentSlotsLearnedWell) {
  auto& f = trained();
  f.extractor->model().set_training(false);
  const data::SlotMetrics m =
      core::Trainer::evaluate(f.extractor->model(), f.test);
  // Appearance slots (time of day, weather) are directly visible in pixels
  // and their average should be well above the 1/3 chance level even in a
  // short training run (individual slots fluctuate at this tiny scale).
  const double appearance = (m.slot_accuracy(sdl::Slot::kTimeOfDay) +
                             m.slot_accuracy(sdl::Slot::kWeather)) /
                            2.0;
  EXPECT_GT(appearance, 0.45);
}

TEST(IntegrationTest, ExtractSerializeParseRoundTrip) {
  auto& f = trained();
  f.extractor->model().set_training(false);
  const core::ExtractionResult result = f.extractor->extract(f.test[0].video);
  const std::string json = sdl::to_json_string(result.description);
  std::string error;
  const auto parsed = sdl::description_from_string(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, result.description);
}

TEST(IntegrationTest, ExtractedDescriptionsPowerScenarioSearch) {
  auto& f = trained();
  f.extractor->model().set_training(false);

  // Index extracted descriptions of the test clips, by clip index.
  ix::FlatIndex index;
  for (std::size_t i = 0; i < f.test.size(); ++i) {
    index.insert(i, f.extractor->extract(f.test[i].video).description);
  }
  // Querying with a clip's own ground truth must return *some* ranking with
  // the best hits more similar than the worst.
  const auto hits = index.search({f.test[0].description, {}, f.test.size()});
  ASSERT_EQ(hits.size(), f.test.size());
  EXPECT_GE(hits.front().score, hits.back().score);
}

TEST(IntegrationTest, ConfidencesCorrelateWithCorrectness) {
  auto& f = trained();
  f.extractor->model().set_training(false);
  double conf_correct = 0.0, conf_wrong = 0.0;
  std::size_t n_correct = 0, n_wrong = 0;
  for (std::size_t i = 0; i < f.test.size(); ++i) {
    const auto result = f.extractor->extract(f.test[i].video);
    const sdl::SlotLabels truth = f.test[i].labels;
    const sdl::SlotLabels pred = sdl::to_slot_labels(result.description);
    for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
      if (pred[s] == truth[s]) {
        conf_correct += result.confidence[s];
        ++n_correct;
      } else {
        conf_wrong += result.confidence[s];
        ++n_wrong;
      }
    }
  }
  ASSERT_GT(n_correct, 0u);
  ASSERT_GT(n_wrong, 0u);
  EXPECT_GT(conf_correct / n_correct, conf_wrong / n_wrong)
      << "softmax confidence should be higher on correct slots";
}
