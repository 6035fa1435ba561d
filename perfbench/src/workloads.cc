#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/rng.h"
#include "io/binary_format.h"
#include "io/text_format.h"
#include "markov/markov_sequence.h"
#include "transducer/transducer.h"
#include "workload/hospital.h"
#include "workload/random_models.h"

namespace perfbench {

namespace {

using tms::Status;
using tms::StatusOr;

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

// The query pools are part of a workload's definition, like the standing
// queries of a deployment, so they come from this fixed seed; --seed
// draws the data (models) and the request order. Seed-drawn queries would
// make the cost of a whole run swing with the seed: the cost of a random
// tracker varies tenfold between draws.
constexpr uint64_t kQuerySeed = 2026;

std::string Numbered(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%02d", prefix, i);
  return buf;
}

// Writes `mu` as a text model (or, for models too large for the text
// parser, as a binary snapshot) and registers it under `name`.
Status AddModel(const std::string& dir, const std::string& name,
                const tms::markov::MarkovSequence& mu, bool text,
                Workload* w) {
  const std::string path = dir + "/" + name + (text ? ".tms" : ".tmsb");
  TMS_RETURN_IF_ERROR(WriteFile(
      path, text ? tms::io::FormatMarkovSequence(mu)
                 : tms::io::EncodeMarkovSequence(mu)));
  w->models.emplace_back(name, path);
  return Status::Ok();
}

// `t` with every emission on a self-loop dropped: like the place tracker,
// the result reports changes of its state rather than every step, which
// keeps outputs (and the Lawler constraints built from them) short.
tms::transducer::Transducer ChangeTracker(const tms::transducer::Transducer& t) {
  tms::transducer::Transducer out(t.input_alphabet(), t.output_alphabet(),
                                  t.num_states());
  out.SetInitial(t.initial());
  for (int q = 0; q < t.num_states(); ++q) {
    out.SetAccepting(q, t.IsAccepting(q));
    for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
      const tms::Symbol symbol = static_cast<tms::Symbol>(s);
      for (const tms::transducer::Edge& e : t.Next(q, symbol)) {
        TMS_CHECK(out.AddTransition(q, symbol, e.target,
                                    e.target == q ? tms::Str{} : e.output)
                      .ok());
      }
    }
  }
  return out;
}

StatusOr<Workload> RfidTopk(uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = "rfid_topk";
  w.server_threads = 1;
  // Two clients, not nproc: with a server thread busy on every vCPU of a
  // 4-vCPU host, the run-to-run spread of requests_per_s was 0.37 (runs
  // fell into 250 and 390 requests/s); at two clients it was 0.07.
  w.clients = 2;
  w.k = 10;
  tms::Rng rng(seed);
  tms::workload::HospitalConfig config;  // 2 rooms x 2 sub-locations
  std::vector<std::string> carts;
  tms::Alphabet locations;
  for (int i = 0; i < 32; ++i) {
    auto scenario = tms::workload::MakeScenario(config, 64, rng);
    if (!scenario.ok()) return scenario.status();
    locations = scenario->mu.nodes();
    carts.push_back(Numbered("cart", i));
    TMS_RETURN_IF_ERROR(AddModel(dir, carts.back(), scenario->mu, true, &w));
  }
  // The query pool: the paper's place tracker plus three seeded
  // deterministic trackers, all states accepting so every cart answers.
  std::vector<std::string> queries;
  queries.push_back(tms::io::FormatTransducer(
      tms::workload::PlaceTracker(locations, config)));
  tms::Rng query_rng(kQuerySeed);
  for (int i = 0; i < 3; ++i) {
    tms::workload::RandomTransducerOptions opts;
    opts.num_states = 2;
    opts.deterministic = true;
    opts.max_emission = 1;
    opts.output_symbols = 2;
    opts.accept_prob = 1.0;
    queries.push_back(tms::io::FormatTransducer(ChangeTracker(
        tms::workload::RandomTransducer(locations, opts, query_rng))));
  }
  for (const std::string& cart : carts) {
    for (const std::string& q : queries) {
      w.requests.push_back({"/query/" + cart + "?k=10", q, cart});
    }
  }
  return w;
}

StatusOr<Workload> BatchExact(uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = "batch_exact";
  w.server_threads = 4;
  w.clients = 1;
  w.k = 4;
  w.batch = true;
  // ~135 responses per 20 s run.
  w.tail = 90;
  tms::Rng rng(seed);
  tms::Alphabet nodes;
  for (int i = 0; i < 64; ++i) {
    auto mu = tms::workload::RandomMarkovSequence(8, 12, 4, rng);
    nodes = mu.nodes();
    TMS_RETURN_IF_ERROR(AddModel(dir, Numbered("seq0", i), mu, true, &w));
  }
  // The bench_shard_merge query: a random nondeterministic non-uniform
  // 3-state transducer with identity loops grafted onto state 0, so every
  // sequence has a nonempty ranked stream and confidence needs the exact
  // (exponential) algorithm.
  tms::workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 1;
  opts.output_symbols = static_cast<int>(nodes.size());
  // bench_shard_merge draws its query after its 64 sequences.
  tms::Rng query_rng(kQuerySeed);
  for (int i = 0; i < 64; ++i) {
    (void)tms::workload::RandomMarkovSequence(8, 12, 4, query_rng);
  }
  tms::transducer::Transducer query =
      tms::workload::RandomTransducer(nodes, opts, query_rng);
  query.SetAccepting(0);
  for (tms::Symbol s = 0; s < static_cast<tms::Symbol>(nodes.size()); ++s) {
    (void)query.AddTransition(0, s, 0, tms::Str{s});
  }
  w.requests.push_back({"/batch?k=4", tms::io::FormatTransducer(query), ""});
  return w;
}

// A deterministic rare-event query over `nodes`: a seeded 1/16 of the
// alphabet is marked and split into four classes; the first two visits
// to a marked symbol emit its class, everything else is silent. Outputs
// have at most two symbols.
tms::transducer::Transducer RareEventQuery(const tms::Alphabet& nodes,
                                           tms::Rng& rng) {
  const int sigma = static_cast<int>(nodes.size());
  std::vector<int> order(static_cast<size_t>(sigma));
  for (int s = 0; s < sigma; ++s) order[static_cast<size_t>(s)] = s;
  for (int i = sigma - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  std::vector<int> cls(static_cast<size_t>(sigma), -1);
  for (int i = 0; i < sigma / 16; ++i) {
    cls[static_cast<size_t>(order[static_cast<size_t>(i)])] = i % 4;
  }
  tms::transducer::Transducer t(nodes, tms::workload::MakeSymbols(4, "c"), 3);
  t.SetInitial(0);
  for (int q = 0; q < 3; ++q) {
    t.SetAccepting(q);
    for (int s = 0; s < sigma; ++s) {
      const int c = cls[static_cast<size_t>(s)];
      const bool visit = c >= 0 && q < 2;
      TMS_CHECK(t.AddTransition(q, static_cast<tms::Symbol>(s),
                                visit ? q + 1 : q,
                                visit ? tms::Str{static_cast<tms::Symbol>(c)}
                                      : tms::Str{})
                    .ok());
    }
  }
  return t;
}

StatusOr<Workload> LongSparse(uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = "long_sparse";
  w.server_threads = 4;
  w.clients = 1;
  w.k = 10;
  // A text model of this size expands to 1023 dense sigma^2 rational
  // matrices in the text parser, so the models ship as binary snapshots.
  w.text_models = false;
  // 35-45 responses of 450-550 ms per 20 s run.
  w.tail = 70;
  tms::Rng rng(seed);
  const int sigma = 256;
  tms::Alphabet nodes;
  std::vector<std::string> names;
  for (int i = 0; i < 4; ++i) {
    auto mu = tms::workload::RandomHomogeneousMarkovSequence(
        sigma, 1024, std::max(1, sigma / 20), rng);
    nodes = mu.nodes();
    names.push_back(Numbered("long", i));
    TMS_RETURN_IF_ERROR(AddModel(dir, names.back(), mu, false, &w));
  }
  tms::Rng query_rng(kQuerySeed);
  const std::string query =
      tms::io::FormatTransducer(RareEventQuery(nodes, query_rng));
  for (const std::string& name : names) {
    w.requests.push_back({"/query/" + name + "?k=10", query, name});
  }
  return w;
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                const std::string& dir) {
  if (name == "rfid_topk") return RfidTopk(seed, dir);
  if (name == "batch_exact") return BatchExact(seed, dir);
  if (name == "long_sparse") return LongSparse(seed, dir);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace perfbench
