// The three seeded workloads of the serving benchmark.
//
// A workload is a set of model files, a pool of distinct requests, and
// the server configuration and client count they are driven with. The
// generator writes the models and query bodies to a directory; the server
// only ever sees those files and the request bodies, never the seed.
//
//   rfid_topk    32 hospital carts (2 rooms x 2 sub-locations, |Sigma|=8,
//                n=64) x 4 deterministic tracker queries, POST
//                /query/<cart>?k=10, 2 closed-loop clients, --threads=1.
//                The interactive per-answer-delay path: Lawler Next plus
//                deterministic confidence, recomposed on every request.
//   batch_exact  64 random sequences (sigma=8, n=12, support 4), one
//                nondeterministic non-uniform 3-state query, POST
//                /batch?k=4, 1 client, --threads=4. Exact confidence
//                dominates; the composition cache and the pool are shared
//                across the sequences of one request.
//   long_sparse  4 homogeneous sequences (sigma=256, n=1024, ~5% density)
//                and a deterministic rare-event query, POST
//                /query/<m>?k=10, 1 client, --threads=4. Sparse-kernel
//                Viterbi and the Theorem 4.6 confidence DP dominate.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One distinct request of a workload.
struct Request {
  std::string target;  ///< HTTP target, e.g. "/query/cart07?k=10"
  std::string body;    ///< query text (transducer format)
  std::string model;   ///< registry name for /query; empty for /batch
};

struct Workload {
  std::string name;
  int server_threads = 1;  ///< tms_server --threads
  int clients = 1;         ///< closed-loop clients (capped at nproc)
  int k = 10;
  bool batch = false;      ///< POST /batch instead of /query/<model>
  bool text_models = true; ///< text models (else binary snapshots only)
  /// Tail percentile of the timings, fixed per workload: the highest of
  /// p99/p90/p75 that leaves at least ten responses beyond it in one run.
  int tail = 99;
  /// `name=path` registry specs, in registry (name) order.
  std::vector<std::pair<std::string, std::string>> models;
  std::vector<Request> requests;
};

/// Generates workload `name` from `seed` into directory `dir` (which must
/// exist): writes every model and query file, returns the description.
tms::StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
