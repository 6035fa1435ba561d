#include "workload/bio.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "markov/world_iter.h"
#include "projector/indexed_enum.h"
#include "test_util.h"

namespace tms::workload {
namespace {

TEST(BioTest, MotifHmmStructure) {
  MotifConfig config;
  config.consensus = "ACG";
  auto hmm = BuildMotifHmm(config);
  ASSERT_TRUE(hmm.ok()) << hmm.status();
  EXPECT_EQ(hmm->states().size(), 4u);  // bg + 3 match states
  EXPECT_EQ(hmm->observations().size(), 4u);
  // m1 prefers A with the configured fidelity.
  Symbol m1 = *hmm->states().Find("m1");
  Symbol a = *hmm->observations().Find("A");
  EXPECT_DOUBLE_EQ(hmm->Emission(m1, a), config.match_fidelity);
  // The motif chain is deterministic: m1 → m2 → m3 → bg.
  Symbol m2 = *hmm->states().Find("m2");
  Symbol m3 = *hmm->states().Find("m3");
  Symbol bg = *hmm->states().Find("bg");
  EXPECT_DOUBLE_EQ(hmm->Transition(m1, m2), 1.0);
  EXPECT_DOUBLE_EQ(hmm->Transition(m3, bg), 1.0);
}

TEST(BioTest, ConfigValidation) {
  MotifConfig bad;
  bad.consensus = "";
  EXPECT_FALSE(BuildMotifHmm(bad).ok());
  bad.consensus = "AXG";
  EXPECT_FALSE(BuildMotifHmm(bad).ok());
  bad = MotifConfig();
  bad.match_fidelity = 0.1;  // below uniform
  EXPECT_FALSE(BuildMotifHmm(bad).ok());
  bad = MotifConfig();
  bad.motif_entry_prob = 0.0;
  EXPECT_FALSE(BuildMotifHmm(bad).ok());
}

TEST(BioTest, ScenarioPosteriorIsValid) {
  MotifConfig config;
  config.consensus = "ACG";
  Rng rng(901);
  auto scenario = MakeMotifScenario(config, 8, rng);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  EXPECT_EQ(scenario->mu.length(), 8);
  double total = 0;
  markov::ForEachWorld(scenario->mu,
                       [&](const Str&, double p) { total += p; });
  EXPECT_NEAR(total, 1.0, 1e-6);
  // The true label sequence has nonzero posterior mass.
  EXPECT_GT(scenario->mu.WorldProbability(scenario->true_labels), 0.0);
}

TEST(BioTest, MotifExtractionEndToEnd) {
  // A read seeded so the motif actually occurs; the extractor's ranked
  // indexed answers must match brute force, and complete occurrences of
  // "m1 m2 m3" must be the only answers besides ε-free empties.
  MotifConfig config;
  config.consensus = "ACG";
  config.match_fidelity = 0.95;
  Rng rng(907);
  auto scenario = MakeMotifScenario(config, 8, rng);
  ASSERT_TRUE(scenario.ok());
  auto extractor = MotifExtractor(config);
  ASSERT_TRUE(extractor.ok()) << extractor.status();

  auto indexed = projector::TopKIndexed(scenario->mu, *extractor, 10);
  auto truth =
      testing::BruteForceIndexedAnswers(scenario->mu, *extractor);
  for (const auto& r : indexed) {
    auto key = std::make_pair(r.answer.output, r.answer.index);
    ASSERT_TRUE(truth.count(key));
    EXPECT_NEAR(r.confidence, truth.at(key), 1e-9);
    // Every answer is a complete motif (length 3: m1 m2 m3).
    EXPECT_EQ(r.answer.output.size(), 3u);
    EXPECT_EQ(scenario->mu.nodes().Name(r.answer.output[0]), "m1");
    EXPECT_EQ(scenario->mu.nodes().Name(r.answer.output[2]), "m3");
  }
  // Occurrence probabilities over all start positions sum to the expected
  // number of motif occurrences (linearity of expectation) — sanity link
  // between the indexed answers and the posterior marginals.
  double occurrence_mass = 0;
  for (const auto& [key, conf] : truth) occurrence_mass += conf;
  double expected_m1 = 0;
  Symbol m1 = *scenario->mu.nodes().Find("m1");
  for (int t = 1; t + 2 <= scenario->mu.length(); ++t) {
    expected_m1 += scenario->mu.Marginal(t)[static_cast<size_t>(m1)];
  }
  EXPECT_NEAR(occurrence_mass, expected_m1, 1e-6);
}

}  // namespace
}  // namespace tms::workload
