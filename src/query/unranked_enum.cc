#include "query/unranked_enum.h"

#include "common/check.h"
#include "exec/fault.h"
#include "obs/obs.h"
#include "optimize/transducer_opt.h"
#include "query/membership.h"

namespace tms::query {

UnrankedEnumerator::UnrankedEnumerator(const markov::MarkovSequence& mu,
                                       const transducer::Transducer& t,
                                       const exec::EngineOptions& options)
    : mu_(&mu),
      // The prune preserves the transduction relation, so every oracle
      // verdict — and therefore the emitted stream — is unchanged; the
      // oracle just runs on fewer states.
      t_(optimize::PruneTransducer(t)),
      run_(options.run),
      backend_(options.backend) {
  max_output_len_ = static_cast<size_t>(mu.length()) *
                    static_cast<size_t>(t_.MaxEmissionLength());
}

UnrankedEnumerator UnrankedEnumerator::WithOwnedInputs(
    markov::MarkovSequence mu, transducer::Transducer t,
    const exec::EngineOptions& options) {
  auto owned_mu =
      std::make_shared<const markov::MarkovSequence>(std::move(mu));
  UnrankedEnumerator out(*owned_mu, t, options);
  out.owned_mu_ = std::move(owned_mu);
  return out;
}

bool UnrankedEnumerator::StopBeforeOracleCall() {
  if (TMS_FAULT_POINT("unranked.pre_oracle")) {
    if (run_ != nullptr) {
      run_->InjectFault("unranked.pre_oracle");
      return true;
    }
    // No context to report through: ignore the injected failure rather
    // than silently truncating an unbounded enumeration.
  }
  return run_ != nullptr && !run_->ChargeWork();
}

std::optional<ranking::ScoredAnswer> UnrankedEnumerator::Next() {
  obs::ScopeAdoption adopt(obs_ctx_);
  TMS_OBS_SPAN("query.unranked_enum.next");
  if (done_) return std::nullopt;
  // Answer boundary: once any limit fires the stream is over for good,
  // leaving an exact prefix of the unbounded enumeration.
  if (run_ != nullptr && !run_->BeforeAnswer()) return std::nullopt;
  const size_t delta = t_.output_alphabet().size();
  const int64_t calls_before = oracle_calls_;
  (void)calls_before;  // only read by instrumentation
  // Timed oracle wrappers: `query.unranked_enum.oracle_ns` is this
  // engine's solve phase in the explain report.
  auto has_answer = [&](const Str& p) {
#if TMS_OBS_ACTIVE
    const int64_t oracle_start_ns = obs::MonotonicNanos();
#endif
    bool r = HasAnswerWithPrefix(*mu_, t_, p, backend_);
    TMS_OBS_HISTOGRAM("query.unranked_enum.oracle_ns",
                      obs::MonotonicNanos() - oracle_start_ns);
    return r;
  };
  auto is_possible = [&](const Str& p) {
#if TMS_OBS_ACTIVE
    const int64_t oracle_start_ns = obs::MonotonicNanos();
#endif
    bool r = IsPossibleAnswer(*mu_, t_, p, backend_);
    TMS_OBS_HISTOGRAM("query.unranked_enum.oracle_ns",
                      obs::MonotonicNanos() - oracle_start_ns);
    return r;
  };
  // Counts the oracle calls made for this answer into the registry and
  // records the inter-answer delay on emission.
  auto emit = [&](const Str& answer) {
    TMS_OBS_COUNT("query.unranked_enum.oracle_calls",
                  oracle_calls_ - calls_before);
    TMS_OBS_COUNT("query.unranked_enum.answers", 1);
    TMS_OBS_HISTOGRAM("query.unranked_enum.delay_oracle_calls",
                      oracle_calls_ - calls_before);
    if (run_ != nullptr) run_->CountAnswer();
    delay_.RecordAnswer();
    return ranking::ScoredAnswer{answer, 0.0};
  };

  if (!started_) {
    started_ = true;
    if (StopBeforeOracleCall()) return std::nullopt;
    ++oracle_calls_;
    if (!has_answer(prefix_)) {
      done_ = true;
      TMS_OBS_COUNT("query.unranked_enum.oracle_calls",
                    oracle_calls_ - calls_before);
      return std::nullopt;
    }
    next_symbol_.push_back(0);
    if (StopBeforeOracleCall()) return std::nullopt;
    ++oracle_calls_;
    if (is_possible(prefix_)) return emit(prefix_);
  }

  // Resume the DFS: extend the current prefix (or backtrack) until the
  // next answer node is entered.
  while (!next_symbol_.empty()) {
    bool descended = false;
    if (prefix_.size() < max_output_len_) {
      for (Symbol d = next_symbol_.back();
           static_cast<size_t>(d) < delta; ++d) {
        prefix_.push_back(d);
        if (StopBeforeOracleCall()) return std::nullopt;
        ++oracle_calls_;
        if (has_answer(prefix_)) {
          next_symbol_.back() = d + 1;
          next_symbol_.push_back(0);
          descended = true;
          break;
        }
        prefix_.pop_back();
      }
    }
    if (descended) {
      if (StopBeforeOracleCall()) return std::nullopt;
      ++oracle_calls_;
      if (is_possible(prefix_)) return emit(prefix_);
      continue;
    }
    // Subtree exhausted: backtrack.
    next_symbol_.pop_back();
    if (!prefix_.empty()) prefix_.pop_back();
  }
  done_ = true;
  TMS_OBS_COUNT("query.unranked_enum.oracle_calls",
                oracle_calls_ - calls_before);
  return std::nullopt;
}

std::vector<Str> AllAnswers(const markov::MarkovSequence& mu,
                            const transducer::Transducer& t) {
  UnrankedEnumerator it(mu, t);
  std::vector<Str> out;
  while (auto answer = it.Next()) out.push_back(std::move(answer->output));
  return out;
}

}  // namespace tms::query
