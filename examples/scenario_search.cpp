// scenario_search — the downstream application the SDL was designed for:
// index a video library by *extracted* scenario descriptions and answer
// semantic queries ("ego turning left at an intersection while a pedestrian
// crosses") without looking at pixels at query time.
//
// Run:  ./scenario_search [library_size] [epochs]
#include <cstdio>
#include <cstdlib>

#include "core/extractor.hpp"
#include "index/flat.hpp"
#include "sdl/serialization.hpp"

using namespace tsdx;

int main(int argc, char** argv) {
  const std::size_t library_size =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 80;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 10;

  core::ModelConfig model_cfg = core::ModelConfig::tiny();
  model_cfg.frames = 8;
  sim::RenderConfig render_cfg;
  render_cfg.height = render_cfg.width = model_cfg.image_size;
  render_cfg.frames = model_cfg.frames;

  // 1. Train an extractor on its own synthetic training set.
  std::printf("Training extractor (%zu epochs)...\n", epochs);
  const data::Dataset train_set =
      data::Dataset::synthesize(render_cfg, 240, 11);
  const auto splits = train_set.split(0.85, 0.15);
  core::ScenarioExtractor extractor(model_cfg, 12);
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 8;
  extractor.train(splits.train, splits.val, tc);
  extractor.model().set_training(false);

  // 2. Ingest an *unlabeled* video library: extraction is the only labeling.
  std::printf("Indexing %zu unlabeled clips by extracted description...\n",
              library_size);
  const data::Dataset library =
      data::Dataset::synthesize(render_cfg, library_size, 999);
  // The clip's library position is its document id.
  index::FlatIndex library_index;
  for (std::size_t i = 0; i < library.size(); ++i) {
    library_index.insert(i, extractor.extract(library[i].video).description);
  }

  // 3. Queries arrive as structured descriptions (or parsed from JSON).
  const char* query_json = R"({
    "environment": {"road_layout": "intersection4", "time_of_day": "night",
                     "weather": "clear", "traffic_density": "sparse"},
    "ego_action": "turn_left",
    "salient_actor": {"type": "pedestrian", "action": "cross",
                       "position": "ahead"}
  })";
  std::string error;
  const auto query = sdl::description_from_string(query_json, &error);
  if (!query) {
    std::fprintf(stderr, "query parse error: %s\n", error.c_str());
    return 1;
  }

  std::printf("\nQuery: %s\n\nTop matches:\n",
              sdl::to_sentence(*query).c_str());
  for (const index::Hit& hit : library_index.search({*query, {}, 5})) {
    // Show the *ground-truth* sentence of the hit so the reader can judge
    // retrieval quality (the index itself only saw extracted descriptions).
    std::printf("  %.3f clip_%llu\n        truth: %s\n", hit.score,
                static_cast<unsigned long long>(hit.id),
                sdl::to_sentence(library[hit.id].description).c_str());
  }
  return 0;
}
