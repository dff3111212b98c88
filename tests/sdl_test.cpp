// sdl_test.cpp — taxonomy round-trips, description labels, semantic
// validation, JSON (writer + parser), serialization, and the Scenario2Vector
// embedding / retrieval index.
#include <gtest/gtest.h>

#include "sdl/description.hpp"
#include "sdl/embedding.hpp"
#include "sdl/json.hpp"
#include "sdl/serialization.hpp"
#include "sdl/diff.hpp"
#include "sdl/taxonomy.hpp"

namespace sdl = tsdx::sdl;

// ---- taxonomy ------------------------------------------------------------------

TEST(TaxonomyTest, EnumNameRoundTrips) {
  for (std::size_t i = 0; i < sdl::kNumRoadLayouts; ++i) {
    const auto v = static_cast<sdl::RoadLayout>(i);
    EXPECT_EQ(sdl::parse_road_layout(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumEgoActions; ++i) {
    const auto v = static_cast<sdl::EgoAction>(i);
    EXPECT_EQ(sdl::parse_ego_action(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumActorTypes; ++i) {
    const auto v = static_cast<sdl::ActorType>(i);
    EXPECT_EQ(sdl::parse_actor_type(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumActorActions; ++i) {
    const auto v = static_cast<sdl::ActorAction>(i);
    EXPECT_EQ(sdl::parse_actor_action(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumRelativePositions; ++i) {
    const auto v = static_cast<sdl::RelativePosition>(i);
    EXPECT_EQ(sdl::parse_relative_position(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumTimesOfDay; ++i) {
    const auto v = static_cast<sdl::TimeOfDay>(i);
    EXPECT_EQ(sdl::parse_time_of_day(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumWeathers; ++i) {
    const auto v = static_cast<sdl::Weather>(i);
    EXPECT_EQ(sdl::parse_weather(sdl::to_string(v)), v);
  }
  for (std::size_t i = 0; i < sdl::kNumTrafficDensities; ++i) {
    const auto v = static_cast<sdl::TrafficDensity>(i);
    EXPECT_EQ(sdl::parse_traffic_density(sdl::to_string(v)), v);
  }
}

TEST(TaxonomyTest, UnknownTokensRejected) {
  EXPECT_FALSE(sdl::parse_road_layout("roundabout").has_value());
  EXPECT_FALSE(sdl::parse_ego_action("").has_value());
  EXPECT_FALSE(sdl::parse_actor_type("Car").has_value());  // case-sensitive
}

TEST(TaxonomyTest, SlotCardinalityConsistent) {
  EXPECT_EQ(sdl::kSlotCardinality[static_cast<std::size_t>(
                sdl::Slot::kRoadLayout)],
            sdl::kNumRoadLayouts);
  EXPECT_EQ(sdl::kSlotCardinality[static_cast<std::size_t>(
                sdl::Slot::kActorAction)],
            sdl::kNumActorActions);
  // Every slot/class pair has a printable name.
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    for (std::size_t c = 0; c < sdl::kSlotCardinality[s]; ++c) {
      EXPECT_FALSE(
          sdl::slot_class_name(static_cast<sdl::Slot>(s), c).empty());
    }
  }
}

// ---- slot labels --------------------------------------------------------------------

namespace {

sdl::ScenarioDescription example_description() {
  sdl::ScenarioDescription d;
  d.environment.road_layout = sdl::RoadLayout::kIntersection4;
  d.environment.time_of_day = sdl::TimeOfDay::kNight;
  d.environment.weather = sdl::Weather::kRain;
  d.environment.density = sdl::TrafficDensity::kMedium;
  d.ego_action = sdl::EgoAction::kTurnLeft;
  d.salient_actor = {sdl::ActorType::kPedestrian, sdl::ActorAction::kCross,
                     sdl::RelativePosition::kAhead};
  d.background_actors.push_back({sdl::ActorType::kCar,
                                 sdl::ActorAction::kParked,
                                 sdl::RelativePosition::kRight});
  return d;
}

}  // namespace

TEST(DescriptionTest, SlotLabelRoundTrip) {
  const sdl::ScenarioDescription d = example_description();
  const sdl::SlotLabels labels = sdl::to_slot_labels(d);
  const sdl::ScenarioDescription back = sdl::from_slot_labels(labels);
  // background actors are not representable in slot labels
  EXPECT_EQ(back.environment, d.environment);
  EXPECT_EQ(back.ego_action, d.ego_action);
  EXPECT_EQ(back.salient_actor, d.salient_actor);
  EXPECT_TRUE(back.background_actors.empty());
}

TEST(DescriptionTest, FromSlotLabelsRangeChecked) {
  sdl::SlotLabels bad{};
  bad[0] = sdl::kNumRoadLayouts;  // out of range
  EXPECT_THROW(sdl::from_slot_labels(bad), std::out_of_range);
}

// ---- validation -------------------------------------------------------------------------

TEST(ValidationTest, ValidDescriptionPasses) {
  EXPECT_TRUE(sdl::is_valid(example_description()));
}

TEST(ValidationTest, EgoTurnRequiresJunction) {
  sdl::ScenarioDescription d = example_description();
  d.environment.road_layout = sdl::RoadLayout::kStraight;
  d.ego_action = sdl::EgoAction::kTurnLeft;
  const auto errors = sdl::validate(d);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("ego"), std::string::npos);
}

TEST(ValidationTest, PedestrianCannotCruise) {
  sdl::ScenarioDescription d = example_description();
  d.salient_actor.action = sdl::ActorAction::kCruise;
  EXPECT_FALSE(sdl::is_valid(d));
}

TEST(ValidationTest, CrossRequiresVru) {
  sdl::ScenarioDescription d = example_description();
  d.salient_actor.type = sdl::ActorType::kTruck;  // truck crossing: invalid
  EXPECT_FALSE(sdl::is_valid(d));
  d.salient_actor.type = sdl::ActorType::kCyclist;
  EXPECT_TRUE(sdl::is_valid(d));
}

TEST(ValidationTest, NoneFieldsMustAgree) {
  sdl::ScenarioDescription d = example_description();
  d.salient_actor = {sdl::ActorType::kNone, sdl::ActorAction::kCross,
                     sdl::RelativePosition::kNone};
  EXPECT_FALSE(sdl::is_valid(d));
  d.salient_actor = {sdl::ActorType::kNone, sdl::ActorAction::kNone,
                     sdl::RelativePosition::kNone};
  EXPECT_TRUE(sdl::is_valid(d));
}

TEST(ValidationTest, ActorTurnRequiresJunction) {
  sdl::ScenarioDescription d = example_description();
  d.environment.road_layout = sdl::RoadLayout::kCurve;
  d.ego_action = sdl::EgoAction::kCruise;
  d.salient_actor = {sdl::ActorType::kCar, sdl::ActorAction::kTurnRight,
                     sdl::RelativePosition::kAhead};
  EXPECT_FALSE(sdl::is_valid(d));
}

TEST(ValidationTest, BackgroundActorsChecked) {
  sdl::ScenarioDescription d = example_description();
  d.background_actors.push_back({sdl::ActorType::kNone,
                                 sdl::ActorAction::kNone,
                                 sdl::RelativePosition::kNone});
  EXPECT_FALSE(sdl::is_valid(d));
}

// ---- sentence rendering ----------------------------------------------------------------------

TEST(SentenceTest, ContainsKeyPhrases) {
  const std::string s = sdl::to_sentence(example_description());
  EXPECT_NE(s.find("4-way intersection"), std::string::npos);
  EXPECT_NE(s.find("turns left"), std::string::npos);
  EXPECT_NE(s.find("pedestrian"), std::string::npos);
  EXPECT_NE(s.find("crosses"), std::string::npos);
  EXPECT_EQ(s.back(), '.');
}

TEST(SentenceTest, NoActorOmitsWhileClause) {
  sdl::ScenarioDescription d = example_description();
  d.salient_actor = {};
  const std::string s = sdl::to_sentence(d);
  EXPECT_EQ(s.find("while"), std::string::npos);
}

// ---- JSON ------------------------------------------------------------------------------------

TEST(JsonTest, ScalarsAndDump) {
  EXPECT_EQ(sdl::Json(nullptr).dump(), "null");
  EXPECT_EQ(sdl::Json(true).dump(), "true");
  EXPECT_EQ(sdl::Json(42).dump(), "42");
  EXPECT_EQ(sdl::Json(2.5).dump(), "2.5");
  EXPECT_EQ(sdl::Json("hi").dump(), "\"hi\"");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(sdl::Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonTest, ObjectsAndArrays) {
  sdl::JsonObject obj;
  obj.emplace("b", sdl::Json(1));
  obj.emplace("a", sdl::Json(sdl::JsonArray{sdl::Json(1), sdl::Json("x")}));
  const sdl::Json j(std::move(obj));
  // std::map keys are sorted -> deterministic output.
  EXPECT_EQ(j.dump(), "{\"a\":[1,\"x\"],\"b\":1}");
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string text =
      R"({"arr":[1,2.5,true,null,"s"],"nested":{"k":"v"},"n":-3})";
  auto parsed = sdl::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  auto reparsed = sdl::Json::parse(parsed->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*parsed, *reparsed);
  EXPECT_EQ(parsed->find("n")->as_number(), -3.0);
  EXPECT_EQ(parsed->find("nested")->find("k")->as_string(), "v");
}

TEST(JsonTest, ParseWhitespaceAndUnicodeEscapes) {
  auto j = sdl::Json::parse("  { \"k\" : \"\\u0041\\u00e9\" }  ");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->find("k")->as_string(), "A\xc3\xa9");
}

TEST(JsonTest, MalformedInputsRejectedWithErrors) {
  const char* bad[] = {
      "",            "{",        "[1,]",      "{\"a\":}",   "{\"a\" 1}",
      "tru",         "\"unterminated", "{\"a\":1}extra", "[1 2]", "nan",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(sdl::Json::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonTest, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(sdl::Json(3).find("x"), nullptr);
}

TEST(JsonTest, PrettyPrintParsesBack) {
  const sdl::Json j = sdl::to_json(example_description());
  auto round = sdl::Json::parse(j.dump_pretty());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, j);
}

// ---- serialization ----------------------------------------------------------------------------

TEST(SerializationTest, DescriptionJsonRoundTrip) {
  const sdl::ScenarioDescription d = example_description();
  const std::string text = sdl::to_json_string(d);
  std::string error;
  const auto back = sdl::description_from_string(text, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, d);
}

TEST(SerializationTest, PrettyRoundTrip) {
  const sdl::ScenarioDescription d = example_description();
  const auto back =
      sdl::description_from_string(sdl::to_json_string(d, /*pretty=*/true));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(SerializationTest, MissingFieldsReported) {
  std::string error;
  EXPECT_FALSE(sdl::description_from_string("{}", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SerializationTest, UnknownTokenReported) {
  sdl::Json j = sdl::to_json(example_description());
  j.as_object().at("ego_action") = sdl::Json("teleport");
  std::string error;
  EXPECT_FALSE(sdl::description_from_json(j, &error).has_value());
  EXPECT_NE(error.find("teleport"), std::string::npos);
}

TEST(SerializationTest, BackgroundActorsPreserved) {
  sdl::ScenarioDescription d = example_description();
  d.background_actors.push_back({sdl::ActorType::kTruck,
                                 sdl::ActorAction::kCruise,
                                 sdl::RelativePosition::kOncoming});
  const auto back = sdl::description_from_string(sdl::to_json_string(d));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->background_actors.size(), 2u);
  EXPECT_EQ(*back, d);
}

// ---- embedding / retrieval -----------------------------------------------------------------------

TEST(EmbeddingTest, VectorIsUnitNorm) {
  const auto v = sdl::scenario_to_vector(example_description());
  EXPECT_EQ(v.size(), sdl::scenario_vector_dim());
  double norm = 0;
  for (float x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(EmbeddingTest, IdenticalScenariosHaveSimilarityOne) {
  const auto d = example_description();
  EXPECT_NEAR(sdl::scenario_similarity(d, d), 1.0f, 1e-5f);
}

TEST(EmbeddingTest, SimilarityOrderingIsSemantic) {
  const sdl::ScenarioDescription base = example_description();
  // One slot differs (weather) vs many slots differ.
  sdl::ScenarioDescription near = base;
  near.environment.weather = sdl::Weather::kClear;
  sdl::ScenarioDescription far = base;
  far.environment = {};
  far.ego_action = sdl::EgoAction::kCruise;
  far.salient_actor = {};
  EXPECT_GT(sdl::scenario_similarity(base, near),
            sdl::scenario_similarity(base, far));
}

TEST(EmbeddingTest, ActionWeightDominatesWeather) {
  // With default weights, changing the ego action moves the vector more
  // than changing the weather.
  const sdl::ScenarioDescription base = example_description();
  sdl::ScenarioDescription weather_diff = base;
  weather_diff.environment.weather = sdl::Weather::kFog;
  sdl::ScenarioDescription action_diff = base;
  action_diff.ego_action = sdl::EgoAction::kStop;
  EXPECT_GT(sdl::scenario_similarity(base, weather_diff),
            sdl::scenario_similarity(base, action_diff));
}

TEST(EmbeddingTest, ZeroActorDescriptionIsUnitNorm) {
  // The all-kNone actor slots are valid labels, not missing data: they embed
  // as ordinary one-hot entries and the vector still normalizes.
  sdl::ScenarioDescription d;
  d.ego_action = sdl::EgoAction::kCruise;
  d.salient_actor = {};
  d.background_actors.clear();
  const auto v = sdl::scenario_to_vector(d);
  double norm = 0;
  for (float x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
  EXPECT_NEAR(sdl::scenario_similarity(d, d), 1.0f, 1e-5f);
}

TEST(EmbeddingTest, BackgroundBlockSaturatesOnPresence) {
  // The background block is multi-hot over *presence*: three parked cars
  // embed identically to one (multiplicity must not inflate the weight).
  sdl::ScenarioDescription one = example_description();
  sdl::ScenarioDescription many = one;
  many.background_actors.push_back(many.background_actors.front());
  many.background_actors.push_back(many.background_actors.front());
  EXPECT_EQ(sdl::scenario_to_vector(one), sdl::scenario_to_vector(many));
}

TEST(EmbeddingTest, ZeroedSlotWeightStillNormalizes) {
  // A weights profile that zeroes a slot removes it from the metric but must
  // not break normalization — the remaining blocks carry the norm.
  sdl::EmbeddingWeights w;
  w.weather = 0.0f;
  const auto v = sdl::scenario_to_vector(example_description(), w);
  double norm = 0;
  for (float x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
  // And the weather block really is zero: scenarios differing only in
  // weather become indistinguishable under this profile.
  sdl::ScenarioDescription other = example_description();
  other.environment.weather = sdl::Weather::kFog;
  EXPECT_NEAR(sdl::scenario_similarity(example_description(), other, w), 1.0f,
              1e-6f);
}

// ---- diff -------------------------------------------------------------------------------------

TEST(DiffTest, IdenticalDescriptionsHaveNoDiff) {
  const auto d = example_description();
  EXPECT_TRUE(sdl::diff_descriptions(d, d).empty());
  EXPECT_EQ(sdl::matching_slots(d, d), sdl::kNumSlots);
  EXPECT_EQ(sdl::diff_to_string({}), "");
}

TEST(DiffTest, ReportsChangedSlotsWithNames) {
  sdl::ScenarioDescription a = example_description();
  sdl::ScenarioDescription b = a;
  b.ego_action = sdl::EgoAction::kCruise;
  b.environment.weather = sdl::Weather::kFog;
  const auto diffs = sdl::diff_descriptions(a, b);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(sdl::matching_slots(a, b), sdl::kNumSlots - 2);
  const std::string text = sdl::diff_to_string(diffs);
  EXPECT_NE(text.find("weather: rain->fog"), std::string::npos);
  EXPECT_NE(text.find("ego_action: turn_left->cruise"), std::string::npos);
}

TEST(DiffTest, BackgroundActorsIgnored) {
  sdl::ScenarioDescription a = example_description();
  sdl::ScenarioDescription b = a;
  b.background_actors.clear();
  EXPECT_TRUE(sdl::diff_descriptions(a, b).empty());
}
