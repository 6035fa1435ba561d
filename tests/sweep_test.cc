// Parameterized cross-class sweeps: for every transducer class of Table 2
// and a grid of model sizes, validate the FULL evaluation pipeline
// (enumeration completeness, confidence, E_max, ranked order) against
// possible-world brute force. This is the library-wide conformance net.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "common/rng.h"
#include "projector/imax_enum.h"
#include "projector/indexed_confidence.h"
#include "projector/indexed_enum.h"
#include "query/answers.h"
#include "query/evaluator.h"
#include "query/unranked_enum.h"
#include "test_util.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct PipelineParam {
  const char* name;
  int sigma;
  int n;
  int states;
  bool deterministic;
  int uniform_k;      // -1 = non-uniform
  int max_emission;
  bool selective;
};

// Printed by field for a stable ctest name (see SProjectorParam's PrintTo).
void PrintTo(const PipelineParam& param, std::ostream* os) {
  *os << "sigma=" << param.sigma << " n=" << param.n
      << " states=" << param.states << " det=" << param.deterministic
      << " uniform_k=" << param.uniform_k
      << " max_emission=" << param.max_emission
      << " selective=" << param.selective;
}

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineSweep, FullEvaluationMatchesBruteForce) {
  const PipelineParam& param = GetParam();
  Rng rng(static_cast<uint64_t>(param.sigma * 7919 + param.n * 104729 +
                                param.states + param.uniform_k + 17));
  for (int trial = 0; trial < 5; ++trial) {
    markov::MarkovSequence mu =
        workload::RandomMarkovSequence(param.sigma, param.n, param.sigma, rng);
    workload::RandomTransducerOptions opts;
    opts.num_states = param.states;
    opts.deterministic = param.deterministic;
    opts.uniform_k = param.uniform_k;
    opts.max_emission = param.max_emission;
    opts.accept_prob = param.selective ? 0.5 : 1.0;
    transducer::Transducer t =
        workload::RandomTransducer(mu.nodes(), opts, rng);
    auto truth = testing::BruteForceAnswers(mu, t);

    // 1. Unranked enumeration: exactly the brute-force answer set.
    std::vector<Str> answers = query::AllAnswers(mu, t);
    ASSERT_EQ(answers.size(), truth.size());
    for (const Str& o : answers) ASSERT_TRUE(truth.count(o));

    // 2. Evaluator: top-k ranked by E_max with correct scores.
    auto eval = query::Evaluator::Create(&mu, &t);
    ASSERT_TRUE(eval.ok());
    auto topk = eval->TopK(5);
    ASSERT_TRUE(topk.ok()) << topk.status();
    double prev = 1e300;
    for (const query::AnswerInfo& info : *topk) {
      EXPECT_NEAR(info.confidence, truth.at(info.output), 1e-9);
      EXPECT_NEAR(info.emax, testing::BruteForceEmax(mu, t, info.output),
                  1e-9);
      EXPECT_LE(info.emax, prev + 1e-12);
      prev = info.emax;
      // E_max ≤ conf ≤ 1 sandwich.
      EXPECT_LE(info.emax, info.confidence + 1e-12);
      EXPECT_LE(info.confidence, 1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table2Classes, PipelineSweep,
    ::testing::Values(
        PipelineParam{"mealy", 2, 5, 2, true, 1, 1, false},
        PipelineParam{"det_uniform0", 2, 5, 2, true, 0, 0, true},
        PipelineParam{"det_uniform2", 2, 4, 2, true, 2, 2, true},
        PipelineParam{"det_nonuniform", 2, 4, 3, true, -1, 2, true},
        PipelineParam{"nondet_uniform", 2, 4, 3, false, 1, 1, false},
        PipelineParam{"nondet_general", 2, 4, 3, false, -1, 2, true},
        PipelineParam{"wider_alphabet", 3, 4, 2, true, -1, 1, true},
        PipelineParam{"longer_chain", 2, 7, 2, true, 1, 1, false}),
    [](const ::testing::TestParamInfo<PipelineParam>& info) {
      return std::string(info.param.name);
    });

struct SProjectorParam {
  const char* name;
  int sigma;
  int n;
  int states;
};

// Each ctest name carries the printed param. gtest's default byte dump
// would include the address held in `name`, which changes from one test
// discovery to the next, so print the fields instead.
void PrintTo(const SProjectorParam& param, std::ostream* os) {
  *os << "sigma=" << param.sigma << " n=" << param.n
      << " states=" << param.states;
}

class SProjectorSweep : public ::testing::TestWithParam<SProjectorParam> {};

TEST_P(SProjectorSweep, FacadeMatchesBruteForce) {
  const SProjectorParam& param = GetParam();
  Rng rng(static_cast<uint64_t>(param.sigma * 31 + param.n * 37 +
                                param.states));
  for (int trial = 0; trial < 5; ++trial) {
    markov::MarkovSequence mu =
        workload::RandomMarkovSequence(param.sigma, param.n, param.sigma, rng);
    auto p = projector::SProjector::Create(
        workload::RandomDfa(mu.nodes(), param.states, rng, 0.6),
        workload::RandomDfa(mu.nodes(), param.states, rng, 0.6),
        workload::RandomDfa(mu.nodes(), param.states, rng, 0.6));
    ASSERT_TRUE(p.ok());
    auto indexed_conf = projector::IndexedConfidence::Create(&mu, &*p);
    ASSERT_TRUE(indexed_conf.ok());

    auto indexed_truth = testing::BruteForceIndexedAnswers(mu, *p);
    auto string_truth = testing::BruteForceSProjectorAnswers(mu, *p);

    // Indexed top-k: exact order, correct confidences.
    auto indexed = projector::TopKIndexed(mu, *p, 5);
    double prev = 1e300;
    for (const auto& r : indexed) {
      auto key = std::make_pair(r.answer.output, r.answer.index);
      ASSERT_TRUE(indexed_truth.count(key));
      EXPECT_NEAR(r.confidence, indexed_truth.at(key), 1e-9);
      EXPECT_NEAR(indexed_conf->Confidence(r.answer), r.confidence, 1e-9);
      EXPECT_LE(r.confidence, prev + 1e-12);
      prev = r.confidence;
    }

    // Distinct-string top-k: I_max order, exact confidences, Prop 5.9.
    auto pipeline =
        query::AnswerPipeline::Create(mu, *p, query::AnswerMode::kRanked);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    auto topk = pipeline->Take(5);
    ASSERT_TRUE(topk.ok()) << topk.status();
    prev = 1e300;
    for (const auto& info : *topk) {
      const double imax = info.emax;  // the score of an s-projector stream
      ASSERT_TRUE(string_truth.count(info.output));
      EXPECT_NEAR(info.confidence, string_truth.at(info.output), 1e-9);
      EXPECT_NEAR(imax, projector::ImaxOfAnswer(*indexed_conf, info.output),
                  1e-9);
      EXPECT_LE(imax, info.confidence + 1e-9);
      EXPECT_LE(info.confidence, (param.n + 1) * imax + 1e-9);
      EXPECT_LE(imax, prev + 1e-12);
      prev = imax;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SProjectorSweep,
    ::testing::Values(SProjectorParam{"small", 2, 4, 2},
                      SProjectorParam{"wider", 3, 4, 2},
                      SProjectorParam{"longer", 2, 6, 2},
                      SProjectorParam{"bigger_dfas", 2, 4, 3}),
    [](const ::testing::TestParamInfo<SProjectorParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tms
