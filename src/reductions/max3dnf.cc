#include "reductions/max3dnf.h"

#include <algorithm>

#include "common/check.h"
#include "numeric/rational.h"

namespace tms::reductions {

using numeric::Rational;

int Dnf3Formula::CountSatisfied(const std::vector<bool>& assignment) const {
  TMS_CHECK_EQ(static_cast<int>(assignment.size()), num_vars);
  int count = 0;
  for (const Dnf3Clause& c : clauses) {
    bool sat = true;
    for (int l = 0; l < 3; ++l) {
      if (assignment[static_cast<size_t>(c.var[l])] != c.positive[l]) {
        sat = false;
        break;
      }
    }
    if (sat) ++count;
  }
  return count;
}

int Dnf3Formula::BruteForceOptimum() const {
  TMS_CHECK(num_vars <= 25);
  int best = 0;
  for (uint32_t bits = 0; bits < (1u << num_vars); ++bits) {
    std::vector<bool> assignment(static_cast<size_t>(num_vars));
    for (int v = 0; v < num_vars; ++v) {
      assignment[static_cast<size_t>(v)] = (bits >> v) & 1u;
    }
    best = std::max(best, CountSatisfied(assignment));
  }
  return best;
}

Dnf3Formula Dnf3Formula::Random(int num_vars, int num_clauses, Rng& rng) {
  TMS_CHECK(num_vars >= 3);
  Dnf3Formula out;
  out.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    Dnf3Clause clause;
    // Three distinct variables.
    int v0 = static_cast<int>(rng.UniformInt(0, num_vars - 1));
    int v1 = v0;
    while (v1 == v0) v1 = static_cast<int>(rng.UniformInt(0, num_vars - 1));
    int v2 = v0;
    while (v2 == v0 || v2 == v1) {
      v2 = static_cast<int>(rng.UniformInt(0, num_vars - 1));
    }
    clause.var[0] = v0;
    clause.var[1] = v1;
    clause.var[2] = v2;
    for (int l = 0; l < 3; ++l) clause.positive[l] = rng.Bernoulli(0.5);
    out.clauses.push_back(clause);
  }
  return out;
}

namespace {

Status ValidateFormula(const Dnf3Formula& formula) {
  if (formula.num_vars < 3) {
    return Status::InvalidArgument("formula needs at least 3 variables");
  }
  if (formula.clauses.empty()) {
    return Status::InvalidArgument("formula needs at least one clause");
  }
  for (const Dnf3Clause& c : formula.clauses) {
    for (int l = 0; l < 3; ++l) {
      if (c.var[l] < 0 || c.var[l] >= formula.num_vars) {
        return Status::InvalidArgument("clause variable out of range");
      }
      for (int l2 = l + 1; l2 < 3; ++l2) {
        if (c.var[l] == c.var[l2]) {
          return Status::InvalidArgument(
              "clause variables must be distinct");
        }
      }
    }
  }
  return Status::Ok();
}

// P_j(v, bit): probability that clause j's forced walk assigns `bit` to
// variable v — 1 or 0 when v occurs in clause j, 1/2 otherwise.
Rational ForcedProb(const Dnf3Clause& c, int v, bool bit) {
  for (int l = 0; l < 3; ++l) {
    if (c.var[l] == v) {
      return c.positive[l] == bit ? Rational(1) : Rational(0);
    }
  }
  return Rational(1, 2);
}

double BaseMass(const Dnf3Formula& formula) {
  double mass = 1.0 / static_cast<double>(formula.clauses.size());
  for (int v = 0; v < formula.num_vars - 3; ++v) mass *= 0.5;
  return mass;
}

}  // namespace

StatusOr<Max3DnfInstance> Max3DnfToMealy(const Dnf3Formula& formula,
                                         int copies) {
  TMS_RETURN_IF_ERROR(ValidateFormula(formula));
  if (copies < 1) return Status::InvalidArgument("copies must be >= 1");
  const int m = formula.num_vars;
  const int k = static_cast<int>(formula.clauses.size());
  const int n = m * copies;

  // Input symbols (j, v, bit); outputs {0, 1}.
  Alphabet input;
  for (int j = 0; j < k; ++j) {
    for (int v = 0; v < m; ++v) {
      std::string name = "c";
      name += std::to_string(j);
      name += 'v';
      name += std::to_string(v);
      input.Intern(name + "b0");
      input.Intern(name + "b1");
    }
  }
  auto sym = [m](int j, int v, bool bit) {
    return static_cast<Symbol>(((j * m + v) << 1) | (bit ? 1 : 0));
  };
  Alphabet output;
  output.Intern("0");
  output.Intern("1");

  const size_t sigma = input.size();
  const Rational inv_k(1, k);
  std::vector<Rational> initial(sigma);
  for (int j = 0; j < k; ++j) {
    for (int bit = 0; bit < 2; ++bit) {
      initial[static_cast<size_t>(sym(j, 0, bit != 0))] =
          inv_k * ForcedProb(formula.clauses[static_cast<size_t>(j)], 0,
                             bit != 0);
    }
  }
  std::vector<std::vector<Rational>> transitions(
      static_cast<size_t>(n - 1), std::vector<Rational>(sigma * sigma));
  for (int pos = 1; pos < n; ++pos) {
    auto& matrix = transitions[static_cast<size_t>(pos - 1)];
    const int v_next = pos % m;  // 0-based variable at position pos+1
    const bool copy_boundary = (v_next == 0);
    for (int j = 0; j < k; ++j) {
      for (int bit = 0; bit < 2; ++bit) {
        const size_t row =
            static_cast<size_t>(sym(j, (pos - 1) % m, bit != 0)) * sigma;
        if (copy_boundary) {
          // Fresh clause choice for the next copy.
          for (int j2 = 0; j2 < k; ++j2) {
            for (int bit2 = 0; bit2 < 2; ++bit2) {
              matrix[row + static_cast<size_t>(sym(j2, 0, bit2 != 0))] =
                  inv_k *
                  ForcedProb(formula.clauses[static_cast<size_t>(j2)], 0,
                             bit2 != 0);
            }
          }
        } else {
          for (int bit2 = 0; bit2 < 2; ++bit2) {
            matrix[row + static_cast<size_t>(sym(j, v_next, bit2 != 0))] =
                ForcedProb(formula.clauses[static_cast<size_t>(j)], v_next,
                           bit2 != 0);
          }
        }
      }
    }
    // Rows for symbols of the wrong position never carry mass; give them a
    // valid arbitrary distribution (self-loop).
    for (size_t s = 0; s < sigma; ++s) {
      Rational sum;
      for (size_t t = 0; t < sigma; ++t) sum += matrix[s * sigma + t];
      if (sum.IsZero()) matrix[s * sigma + s] = Rational(1);
    }
  }

  auto mu = markov::MarkovSequence::CreateExact(input, std::move(initial),
                                                std::move(transitions));
  if (!mu.ok()) return mu.status();

  // One-state Mealy machine: ω((j, v, bit)) = bit.
  transducer::Transducer t(input, output, 1);
  t.SetAccepting(0, true);
  for (int j = 0; j < k; ++j) {
    for (int v = 0; v < m; ++v) {
      for (int bit = 0; bit < 2; ++bit) {
        TMS_RETURN_IF_ERROR(t.AddTransition(
            0, sym(j, v, bit != 0), 0, Str{static_cast<Symbol>(bit)}));
      }
    }
  }
  TMS_CHECK(t.IsMealy());

  Max3DnfInstance out{std::move(mu).value(), std::move(t),
                      BaseMass(formula), copies};
  return out;
}

StatusOr<Max3DnfInstance> Max3DnfToProjector(const Dnf3Formula& formula,
                                             int copies) {
  TMS_RETURN_IF_ERROR(ValidateFormula(formula));
  if (copies < 1) return Status::InvalidArgument("copies must be >= 1");
  const int m = formula.num_vars;
  const int k = static_cast<int>(formula.clauses.size());
  const int span = k * m;       // positions per copy
  const int n = span * copies;  // total length

  // Σ = {0, 1, a, b}: bits are emitted, a/b are dropped.
  Alphabet sigma_ab;
  const Symbol kBit0 = sigma_ab.Intern("0");
  const Symbol kBit1 = sigma_ab.Intern("1");
  const Symbol kPadA = sigma_ab.Intern("a");
  const Symbol kPadB = sigma_ab.Intern("b");
  const size_t sigma = sigma_ab.size();
  auto bit_sym = [&](bool bit) { return bit ? kBit1 : kBit0; };

  // Window-entry distribution at the start of window j (0-based): entering
  // worlds emit variable 0's bit under clause j's forcing.
  auto entry_prob = [&](int j, bool bit) {
    return ForcedProb(formula.clauses[static_cast<size_t>(j)], 0, bit);
  };
  // q_j = 1 / (k - j): the conditional entry probability that equalizes
  // all clause branches at 1/k (0-based j).
  auto q = [&](int j) { return Rational(1, k - j); };

  std::vector<Rational> initial(sigma);
  initial[static_cast<size_t>(bit_sym(false))] = q(0) * entry_prob(0, false);
  initial[static_cast<size_t>(bit_sym(true))] = q(0) * entry_prob(0, true);
  initial[static_cast<size_t>(kPadA)] = Rational(1) - q(0);

  std::vector<std::vector<Rational>> transitions(
      static_cast<size_t>(n - 1), std::vector<Rational>(sigma * sigma));
  for (int pos = 1; pos < n; ++pos) {
    auto& matrix = transitions[static_cast<size_t>(pos - 1)];
    auto set = [&](Symbol from, Symbol to, Rational p) {
      matrix[static_cast<size_t>(from) * sigma + static_cast<size_t>(to)] = p;
    };
    const int in_copy = pos % span;        // 0-based position of pos+1
    const int prev_in_copy = (pos - 1) % span;
    const bool copy_boundary = (in_copy == 0);
    const int j_next = in_copy / m;        // window of position pos+1
    const int v_next = in_copy % m;        // variable index at pos+1
    const int j_prev = prev_in_copy / m;

    if (copy_boundary) {
      // Restart: previous copy ended (either inside window k-1's last
      // bit, or in pad b). Fresh entry decision for window 0.
      for (Symbol from : {kBit0, kBit1, kPadB, kPadA}) {
        set(from, bit_sym(false), q(0) * entry_prob(0, false));
        set(from, bit_sym(true), q(0) * entry_prob(0, true));
        set(from, kPadA, Rational(1) - q(0));
      }
    } else {
      if (v_next == 0) {
        // Window j_next starts at pos+1: from pad a, enter or keep padding.
        Rational qq = q(j_next);
        set(kPadA, bit_sym(false),
            qq * ForcedProb(formula.clauses[static_cast<size_t>(j_next)], 0,
                            false));
        set(kPadA, bit_sym(true),
            qq * ForcedProb(formula.clauses[static_cast<size_t>(j_next)], 0,
                            true));
        if (j_next < k - 1) set(kPadA, kPadA, Rational(1) - qq);
        // A bit at the previous position means window j_prev just ended.
        set(kBit0, kPadB, Rational(1));
        set(kBit1, kPadB, Rational(1));
      } else {
        // Inside a window: bits advance to the next variable.
        for (int bit2 = 0; bit2 < 2; ++bit2) {
          Rational p = ForcedProb(
              formula.clauses[static_cast<size_t>(j_prev)], v_next,
              bit2 != 0);
          set(kBit0, bit_sym(bit2 != 0), p);
          set(kBit1, bit_sym(bit2 != 0), p);
        }
        set(kPadA, kPadA, Rational(1));
      }
      set(kPadB, kPadB, Rational(1));
    }
    // Unreachable rows get a valid self-loop.
    for (size_t s = 0; s < sigma; ++s) {
      Rational sum;
      for (size_t u = 0; u < sigma; ++u) sum += matrix[s * sigma + u];
      if (sum.IsZero()) matrix[s * sigma + s] = Rational(1);
    }
  }

  auto mu = markov::MarkovSequence::CreateExact(sigma_ab, std::move(initial),
                                                std::move(transitions));
  if (!mu.ok()) return mu.status();

  // Fixed one-state deterministic projector: emit bits, drop pads.
  transducer::Transducer t(sigma_ab, sigma_ab, 1);
  t.SetAccepting(0, true);
  TMS_RETURN_IF_ERROR(t.AddTransition(0, kBit0, 0, Str{kBit0}));
  TMS_RETURN_IF_ERROR(t.AddTransition(0, kBit1, 0, Str{kBit1}));
  TMS_RETURN_IF_ERROR(t.AddTransition(0, kPadA, 0, {}));
  TMS_RETURN_IF_ERROR(t.AddTransition(0, kPadB, 0, {}));
  TMS_CHECK(t.IsProjector());
  TMS_CHECK(t.IsDeterministic());

  Max3DnfInstance out{std::move(mu).value(), std::move(t),
                      BaseMass(formula), copies};
  return out;
}

StatusOr<std::vector<std::vector<bool>>> DecodeAssignments(
    const Max3DnfInstance& instance, const Str& output, int num_vars) {
  const size_t expected =
      static_cast<size_t>(num_vars) * static_cast<size_t>(instance.copies);
  if (output.size() != expected) {
    return Status::InvalidArgument("output has wrong length for decoding");
  }
  const Alphabet& delta = instance.t.output_alphabet();
  std::vector<std::vector<bool>> out(static_cast<size_t>(instance.copies));
  for (size_t i = 0; i < output.size(); ++i) {
    const std::string& name = delta.Name(output[i]);
    if (name != "0" && name != "1") {
      return Status::InvalidArgument("output contains a non-bit symbol");
    }
    out[i / static_cast<size_t>(num_vars)].push_back(name == "1");
  }
  return out;
}

}  // namespace tms::reductions
