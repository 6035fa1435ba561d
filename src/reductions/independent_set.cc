#include "reductions/independent_set.h"

#include <string>

#include "automata/regex.h"
#include "common/check.h"

namespace tms::reductions {

void Graph::AddEdge(int u, int v) {
  TMS_CHECK(u >= 0 && u < num_vertices && v >= 0 && v < num_vertices);
  TMS_CHECK(u != v);
  adj[static_cast<size_t>(u) * static_cast<size_t>(num_vertices) +
      static_cast<size_t>(v)] = true;
  adj[static_cast<size_t>(v) * static_cast<size_t>(num_vertices) +
      static_cast<size_t>(u)] = true;
}

int Graph::BruteForceMaxIndependentSet() const {
  TMS_CHECK(num_vertices <= 25);
  int best = 0;
  for (uint32_t set = 0; set < (1u << num_vertices); ++set) {
    bool independent = true;
    int size = 0;
    for (int u = 0; u < num_vertices && independent; ++u) {
      if (((set >> u) & 1u) == 0) continue;
      ++size;
      for (int v = u + 1; v < num_vertices; ++v) {
        if (((set >> v) & 1u) != 0 && HasEdge(u, v)) {
          independent = false;
          break;
        }
      }
    }
    if (independent && size > best) best = size;
  }
  return best;
}

bool Graph::IsOrderTransitive() const {
  for (int u = 0; u < num_vertices; ++u) {
    for (int v = u + 1; v < num_vertices; ++v) {
      if (HasEdge(u, v)) continue;
      for (int w = v + 1; w < num_vertices; ++w) {
        if (!HasEdge(v, w) && HasEdge(u, w)) return false;
      }
    }
  }
  return true;
}

Graph Graph::Random(int num_vertices, double edge_prob, Rng& rng) {
  Graph out;
  out.num_vertices = num_vertices;
  out.adj.assign(
      static_cast<size_t>(num_vertices) * static_cast<size_t>(num_vertices),
      false);
  for (int u = 0; u < num_vertices; ++u) {
    for (int v = u + 1; v < num_vertices; ++v) {
      if (rng.Bernoulli(edge_prob)) out.AddEdge(u, v);
    }
  }
  return out;
}

StatusOr<IndependentSetInstance> IndependentSetToSProjector(const Graph& g,
                                                            int n,
                                                            double stay_prob) {
  if (g.num_vertices < 1) {
    return Status::InvalidArgument("graph needs at least one vertex");
  }
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (!(stay_prob > 0.0 && stay_prob < 1.0)) {
    return Status::InvalidArgument("stay_prob must be in (0,1)");
  }
  const int v_count = g.num_vertices;
  Alphabet sigma;
  for (int v = 0; v < v_count; ++v) {
    std::string name = "v";
    name += std::to_string(v);
    sigma.Intern(name);
  }
  const Symbol hash = sigma.Intern("#");
  const size_t k = sigma.size();

  // Initial: # with stay_prob, otherwise uniform over vertices.
  std::vector<double> initial(k, 0.0);
  initial[static_cast<size_t>(hash)] = stay_prob;
  for (int v = 0; v < v_count; ++v) {
    initial[static_cast<size_t>(v)] = (1.0 - stay_prob) / v_count;
  }

  // Homogeneous transition matrix:
  //  * from #: as the initial distribution;
  //  * from vertex u: # with stay_prob, otherwise uniform over the
  //    admissible successors {w > u : ¬E(u, w)} (all mass on # if none).
  std::vector<double> matrix(k * k, 0.0);
  for (size_t row = 0; row < k; ++row) {
    if (static_cast<Symbol>(row) == hash) {
      for (size_t col = 0; col < k; ++col) matrix[row * k + col] = initial[col];
      continue;
    }
    const int u = static_cast<int>(row);
    std::vector<int> successors;
    for (int w = u + 1; w < v_count; ++w) {
      if (!g.HasEdge(u, w)) successors.push_back(w);
    }
    if (successors.empty()) {
      matrix[row * k + static_cast<size_t>(hash)] = 1.0;
    } else {
      matrix[row * k + static_cast<size_t>(hash)] = stay_prob;
      for (int w : successors) {
        matrix[row * k + static_cast<size_t>(w)] =
            (1.0 - stay_prob) / static_cast<double>(successors.size());
      }
    }
  }
  std::vector<std::vector<double>> transitions(static_cast<size_t>(n - 1),
                                               matrix);
  auto mu = markov::MarkovSequence::Create(sigma, std::move(initial),
                                           std::move(transitions));
  if (!mu.ok()) return mu.status();

  // Fixed simple s-projector: extract nonempty runs of vertex symbols.
  auto pattern = automata::CompileRegexToDfa(sigma, "[^ '#' ] +");
  if (!pattern.ok()) return pattern.status();
  auto p = projector::SProjector::Simple(std::move(pattern).value());
  if (!p.ok()) return p.status();

  IndependentSetInstance out{std::move(mu).value(), std::move(p).value()};
  return out;
}

}  // namespace tms::reductions
