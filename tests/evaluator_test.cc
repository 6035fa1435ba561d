#include "query/evaluator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"
#include "workload/random_models.h"
#include "workload/running_example.h"

namespace tms::query {
namespace {

TEST(EvaluatorTest, CreateValidates) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  EXPECT_TRUE(Evaluator::Create(&mu, &fig2).ok());
  EXPECT_FALSE(Evaluator::Create(nullptr, &fig2).ok());
  EXPECT_FALSE(Evaluator::Create(&mu, nullptr).ok());

  Rng rng(3);
  markov::MarkovSequence other = workload::RandomMarkovSequence(2, 3, 2, rng);
  EXPECT_FALSE(Evaluator::Create(&other, &fig2).ok());
}

TEST(EvaluatorTest, TopKWithConfidences) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  auto eval = Evaluator::Create(&mu, &fig2);
  ASSERT_TRUE(eval.ok());
  auto topk = eval->TopK(3);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->size(), 3u);
  auto truth = testing::BruteForceAnswers(mu, fig2);
  for (const AnswerInfo& info : *topk) {
    EXPECT_NEAR(info.confidence, truth.at(info.output), 1e-9);
    EXPECT_NEAR(info.emax, testing::BruteForceEmax(mu, fig2, info.output),
                1e-9);
  }
  EXPECT_GE((*topk)[0].emax, (*topk)[1].emax);
  EXPECT_GE((*topk)[1].emax, (*topk)[2].emax);
}

TEST(EvaluatorTest, TwoStepMatchesBruteForce) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  auto eval = Evaluator::Create(&mu, &fig2);
  ASSERT_TRUE(eval.ok());
  auto result = eval->EvaluateTwoStep();
  ASSERT_TRUE(result.ok());
  auto truth = testing::BruteForceAnswers(mu, fig2);
  ASSERT_EQ(result->size(), truth.size());
  for (const AnswerInfo& info : *result) {
    EXPECT_NEAR(info.confidence, truth.at(info.output), 1e-9);
  }
}

TEST(EvaluatorTest, SingleAnswerQueries) {
  markov::MarkovSequence mu = workload::Figure1Sequence();
  transducer::Transducer fig2 = workload::Figure2Transducer();
  auto eval = Evaluator::Create(&mu, &fig2);
  ASSERT_TRUE(eval.ok());
  Str twelve = *ParseStr(fig2.output_alphabet(), "1 2");
  auto conf = eval->Confidence(twelve);
  ASSERT_TRUE(conf.ok());
  EXPECT_NEAR(*conf, 0.5802, 1e-12);
  auto emax = eval->Emax(twelve);
  ASSERT_TRUE(emax.has_value());
  EXPECT_NEAR(*emax, 0.3969, 1e-12);
  EXPECT_FALSE(
      eval->Emax(*ParseStr(fig2.output_alphabet(), "λ")).has_value());
}

}  // namespace
}  // namespace tms::query
