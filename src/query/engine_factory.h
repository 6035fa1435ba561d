// The one place enumeration engines are constructed.
//
// Every ranked/unranked answer stream in the system — the E_max Lawler
// engine (Theorem 4.3), the unranked flashlight DFS (Theorem 4.1), and the
// s-projector I_max engine (Theorem 5.2) — is built here from a model, a
// query, and one exec::EngineOptions. Callers receive the uniform
// ranking::AnswerStream interface and never name a concrete engine class,
// so execution resources (pool / cache / run / backend) are threaded
// through one door and input validation returns Status instead of
// crashing.
//
// Outside the engines' own tests and benches, only query::AnswerPipeline
// (query/answers.h) calls it: the server, tms_cli, query::Evaluator and
// db::BatchEvaluator all take their answer streams from that pipeline.

#ifndef TMS_QUERY_ENGINE_FACTORY_H_
#define TMS_QUERY_ENGINE_FACTORY_H_

#include <memory>

#include "common/status.h"
#include "exec/engine_options.h"
#include "markov/markov_sequence.h"
#include "projector/sprojector.h"
#include "ranking/answer_stream.h"
#include "transducer/transducer.h"

namespace tms::query {

/// Which enumeration engine to build for a (μ, transducer) pair.
enum class EnumeratorKind {
  kEmax,      ///< ranked by decreasing E_max (EmaxEnumerator)
  kUnranked,  ///< lexicographic, score 0.0 (UnrankedEnumerator)
};

/// Returns the engine's display name ("emax" / "unranked").
const char* EnumeratorKindName(EnumeratorKind kind);

/// Builds an answer stream over A^ω(μ). Borrows `mu` and `t` — both must
/// outlive the stream (see the borrow-vs-own contract in
/// ranking/answer_stream.h). Fails if the node set of `mu` differs from
/// the input alphabet of `t`, or `t` is invalid.
StatusOr<std::unique_ptr<ranking::AnswerStream>> MakeEnumerator(
    EnumeratorKind kind, const markov::MarkovSequence& mu,
    const transducer::Transducer& t, const exec::EngineOptions& options = {});

/// As MakeEnumerator, but the stream owns copies of the inputs — safe when
/// the caller's originals are temporaries.
StatusOr<std::unique_ptr<ranking::AnswerStream>> MakeEnumeratorWithOwnedInputs(
    EnumeratorKind kind, markov::MarkovSequence mu, transducer::Transducer t,
    const exec::EngineOptions& options = {});

/// Builds the I_max-ranked stream of an s-projector query (the
/// n-approximate confidence order of Theorem 5.2). Borrows `mu` and `p`.
/// Fails on alphabet mismatch.
StatusOr<std::unique_ptr<ranking::AnswerStream>> MakeEnumerator(
    const markov::MarkovSequence& mu, const projector::SProjector& p,
    const exec::EngineOptions& options = {});

/// As the s-projector MakeEnumerator, but owning copies of the inputs.
StatusOr<std::unique_ptr<ranking::AnswerStream>> MakeEnumeratorWithOwnedInputs(
    markov::MarkovSequence mu, projector::SProjector p,
    const exec::EngineOptions& options = {});

}  // namespace tms::query

#endif  // TMS_QUERY_ENGINE_FACTORY_H_
