// tms_perfbench — one run of the serving benchmark on one workload.
//
//   tms_perfbench --workload=<rfid_topk|batch_exact|long_sparse> --seed=N
//                 --seconds=S --trace=0|1 --server=<tms_server binary>
//                 --work-dir=DIR [--trace-out=FILE]
//
// One run: generate the workload's inputs from the seed into DIR; load
// them in process (the reference replay); start tms_server on the files
// several times, timing each start to its first healthy /healthz; drive
// the last server with closed-loop clients for S seconds after a warm-up,
// byte-checking every response against the replay; then print every
// metric by name and unit, and as the last line of stdout one JSON
// object {"correct","attempted","failed","metrics"}. With --trace=0 the
// metrics are the end-to-end ones; with --trace=1 they are the per-layer
// ones: spans from a traced in-process replay, and work counters scraped
// from the server's /metrics around two identical sequential passes over
// every distinct request.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "io/binary_format.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/registry.h"

#include "load.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 9;
constexpr int kSegments = 5;
constexpr double kWarmupSeconds = 2.0;
// Minimum wall time of each in-process replay phase (untraced, traced).
constexpr double kReplaySeconds = 2.0;

// The work counters scraped from /metrics, reported per request.
const char* const kCounters[] = {
    "query.emax_enum.compose_ns",    "query.emax_enum.solve_ns",
    "optimize.optimize_ns",          "ranking.lawler.solver_calls",
    "query.emax_enum.composed_states", "query.confidence.calls",
    "query.confidence.exact_calls",  "kernels.gemv.cells",
    "kernels.gemm.cells",            "kernels.argmax.cells",
    "kernels.sparse.gemv.nnz",       "kernels.sparse.gemm.cells",
    "kernels.sparse.maskor.nnz",     "kernels.sparse.chosen",
    "kernels.sparse.fallback",       "cache.hits",
    "cache.misses",                  "exec.pool.items",
    "exec.pool.worker_items",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: tms_perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --server=PATH --work-dir=DIR [--trace-out=FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string_view::npos) return false;
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    int64_t number = 0;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      if (!tms::ParseNonNegInt64(value, &number)) return false;
      args->seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (key == "seconds") {
      if (!tms::ParseNonNegInt64(value, &number) || number < 1) return false;
      args->seconds = static_cast<double>(number);
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "server") {
      args->server = value;
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && args->seconds > 0 && !args->workload.empty() &&
         !args->server.empty() && !args->work_dir.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile (numpy's default), p in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The successful responses of one stretch of the measured window.
struct Window {
  std::vector<double> answer1, gaps, response;
  int64_t answers = 0;

  void Add(const Sample& s) {
    answers += s.answers;
    if (s.answer1_ms >= 0) answer1.push_back(s.answer1_ms);
    if (s.gap_ms >= 0) gaps.push_back(s.gap_ms);
    response.push_back(s.response_ms);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" +
            value + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Loads the registry the way tms_server does, timing it.
tms::StatusOr<tms::serve::ModelRegistry> TimedLoad(const Workload& w,
                                                   std::vector<double>* ms) {
  const Clock::time_point start = Clock::now();
  auto registry = tms::serve::ModelRegistry::Load(w.models);
  ms->push_back(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  return registry;
}

// Value of one library metric in a parsed /metrics delta: a counter, or
// a histogram's sum.
double MetricValue(const std::map<std::string, double>& m,
                   const std::string& name) {
  const std::string series = tms::obs::PrometheusMetricName(name);
  auto it = m.find(series);
  if (it == m.end()) it = m.find(series + "_sum");
  return it == m.end() ? 0.0 : it->second;
}

// One sequential pass over every distinct request, bracketed by /metrics
// scrapes. Returns each kCounters entry per request; false on any failed
// response or scrape.
bool CounterPass(int port, const Workload& w,
                 const std::vector<std::vector<std::string>>& expected,
                 std::map<std::string, double>* per_request) {
  auto before = HttpGet(port, "/metrics");
  if (!before.ok() || before->status != 200) return false;
  bool ok = true;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    Sample s = SendOnce(port, w.requests[i], expected[i]);
    if (!s.ok) {
      std::fprintf(stderr, "counter pass: %s: %s\n",
                   w.requests[i].target.c_str(), s.error.c_str());
      ok = false;
    }
  }
  auto after = HttpGet(port, "/metrics");
  if (!after.ok() || after->status != 200) return false;
  const auto b = ParsePrometheus(before->body);
  const auto a = ParsePrometheus(after->body);
  const double n = static_cast<double>(w.requests.size());
  for (const char* name : kCounters) {
    (*per_request)[name] = (MetricValue(a, name) - MetricValue(b, name)) / n;
  }
  return ok;
}

struct ReplayTiming {
  double plain_ms = 0;   ///< per request, untraced
  double traced_ms = 0;  ///< per request, traced
  int passes = 0;        ///< per mode
  bool ok = true;
};

// Replays every request in order, alternating an untraced pass with a
// traced one (so that drift in machine speed falls on both alike), until
// each mode has run for kReplaySeconds. `tracer` records the traced
// passes; every replayed response is checked against `expected`.
ReplayTiming ReplayAlternating(
    Replayer* replayer, const Workload& w,
    const std::vector<std::vector<std::string>>& expected, Tracer* tracer) {
  Tracer untraced(false);
  ReplayTiming timing;
  double seconds[2] = {0, 0};
  int64_t request_id = 0;
  while (seconds[0] < kReplaySeconds || seconds[1] < kReplaySeconds) {
    for (int traced = 0; traced < 2; ++traced) {
      Tracer* t = traced ? tracer : &untraced;
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < w.requests.size(); ++i) {
        t->set_request_id(request_id++);
        auto lines = replayer->Run(w.requests[i], t);
        if (!lines.ok() || *lines != expected[i]) timing.ok = false;
      }
      seconds[traced] +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
    ++timing.passes;
  }
  const double requests =
      static_cast<double>(timing.passes) * static_cast<double>(w.requests.size());
  timing.plain_ms = seconds[0] * 1e3 / requests;
  timing.traced_ms = seconds[1] * 1e3 / requests;
  return timing;
}

int Run(const Args& args) {
  // Match the server, which always records metrics: the replay pays the
  // same instrumentation cost as the served path it is compared with.
  tms::obs::SetEnabled(true);
  std::filesystem::create_directories(args.work_dir);
  auto made = MakeWorkload(args.workload, args.seed, args.work_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const Workload& w = *made;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int clients = std::min(w.clients, nproc);

  // Registry load, text state then snapshot state. The first text load
  // writes the .tmsb snapshots every later load (and every server start)
  // reads, which pins setup_s to the snapshot state.
  const int load_repeats = args.trace ? 3 : 1;
  std::vector<double> text_ms, snapshot_ms;
  for (int i = 0; w.text_models && i < load_repeats; ++i) {
    for (const auto& [name, path] : w.models) {
      std::filesystem::remove(tms::io::SnapshotPath(path));
    }
    auto loaded = TimedLoad(w, &text_ms);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
  }
  std::optional<tms::serve::ModelRegistry> registry;
  for (int i = 0; i < load_repeats; ++i) {
    auto loaded = TimedLoad(w, &snapshot_ms);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    registry = std::move(loaded).value();
  }

  // The reference every served response is byte-checked against.
  Replayer replayer(w, &*registry);
  Tracer untraced(false);
  std::vector<std::vector<std::string>> expected;
  for (const Request& r : w.requests) {
    auto lines = replayer.Run(r, &untraced);
    if (!lines.ok()) {
      std::fprintf(stderr, "error: replay of %s: %s\n", r.target.c_str(),
                   lines.status().ToString().c_str());
      return 1;
    }
    expected.push_back(std::move(lines).value());
  }

  // A connection thread keeps its admission slot until its handler has
  // torn down the query, after the client has read the terminal chunk, so
  // a closed-loop client can overlap its next request with its previous
  // one on the server. The default limit of 8 then refuses some requests
  // of 4 clients; 32 admits every overlap the clients can cause.
  std::vector<std::string> server_argv = {
      args.server, "--threads=" + std::to_string(w.server_threads),
      "--max-inflight=32"};
  for (const auto& [name, path] : w.models) {
    server_argv.push_back(name + "=" + path);
  }
  const std::string port_file = args.work_dir + "/port";
  const std::string log_file = args.work_dir + "/server.log";
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server != nullptr) (void)server->Stop();
    double seconds = 0;
    auto started =
        ServerProcess::Start(server_argv, port_file, log_file, &seconds);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
    setup_s.push_back(seconds);
  }
  const int port = server->port();

  bool correct = true;
  std::map<std::string, double> pass_a, pass_b;
  if (!CounterPass(port, w, expected, &pass_a) ||
      !CounterPass(port, w, expected, &pass_b)) {
    correct = false;
  }
  LoadResult warmup =
      RunClosedLoop(port, w, expected, clients, kWarmupSeconds, args.seed);
  for (const Sample& s : warmup.samples) {
    if (!s.ok) correct = false;
  }

  const auto server_cpu_before = server->CpuSeconds();
  const auto steal_before = ReadHostCpuTicks();
  LoadResult load = RunClosedLoop(port, w, expected, clients, args.seconds,
                                  args.seed + 1);
  const auto server_cpu_after = server->CpuSeconds();
  const auto steal_after = ReadHostCpuTicks();
  const auto rss = server->PeakRssMb();
  if (!server->Stop().ok()) correct = false;
  if (!server_cpu_before.ok() || !server_cpu_after.ok() || !rss.ok()) {
    std::fprintf(stderr, "error: cannot read the server's /proc entries\n");
    return 1;
  }

  // Every timing is computed per segment of the window (by send time) and
  // reported as the median over the segments, so that a burst of
  // interference from outside the benchmark moves one segment, not the
  // result. A statistic a segment has too few samples for is computed
  // over the whole window instead.
  std::vector<Window> segments(kSegments);
  Window all;
  int64_t failed = 0, refused = 0;
  for (const Sample& s : load.samples) {
    if (!s.ok) {
      ++failed;
      if (s.refused) ++refused;
      if (failed <= 3) std::fprintf(stderr, "failed: %s\n", s.error.c_str());
      continue;
    }
    const int segment = std::min(
        kSegments - 1, static_cast<int>(s.start_s * kSegments / args.seconds));
    segments[static_cast<size_t>(segment)].Add(s);
    all.Add(s);
  }
  const std::vector<double>& answer1 = all.answer1;
  const std::vector<double>& gaps = all.gaps;
  const std::vector<double>& response = all.response;
  auto segmented = [&](std::vector<double> Window::*samples, double p) {
    std::vector<double> per_segment;
    for (const Window& segment : segments) {
      const std::vector<double>& v = segment.*samples;
      if (static_cast<double>(v.size()) * (100 - p) / 100.0 < 10) {
        return Percentile(all.*samples, p);
      }
      per_segment.push_back(Percentile(v, p));
    }
    return Median(per_segment);
  };
  // A closed loop with no think time keeps every client busy, so its
  // throughput is clients / mean response time (Little's law) — measured
  // per segment without the quantization of counting completions.
  std::vector<double> requests_per_s, answers_per_s;
  for (const Window& segment : segments) {
    if (segment.response.empty()) continue;
    double total_ms = 0;
    for (double r : segment.response) total_ms += r;
    const double rate = clients * 1e3 *
                        static_cast<double>(segment.response.size()) /
                        total_ms;
    requests_per_s.push_back(rate);
    answers_per_s.push_back(rate * static_cast<double>(segment.answers) /
                            static_cast<double>(segment.response.size()));
  }
  const int64_t attempted = static_cast<int64_t>(load.samples.size());
  if (failed > 0 || attempted == 0) correct = false;

  std::printf("workload %s seed %llu: %zu models, %zu distinct requests, "
              "k=%d, %d closed-loop clients (one connection each), "
              "tms_server --threads=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.models.size(), w.requests.size(), w.k, clients,
              w.server_threads);
  const double steal_share = HostStealShare(steal_before, steal_after);
  std::printf("samples: %zu responses, %zu with an answer, %zu with two or "
              "more (tail p%d); failed_ratio %lld/%lld, refused (429/503) "
              "%lld; host steal %.1f%% of CPU time\n",
              response.size(), answer1.size(), gaps.size(), w.tail,
              static_cast<long long>(failed),
              static_cast<long long>(attempted),
              static_cast<long long>(refused), 100 * steal_share);
  std::printf("requests/s per segment:");
  for (double rate : requests_per_s) std::printf(" %.1f", rate);
  std::printf("\n");
  if (static_cast<double>(response.size()) * (100 - w.tail) / 100.0 < 10) {
    std::fprintf(stderr,
                 "warning: fewer than 10 responses beyond p%d (%zu "
                 "responses)\n",
                 w.tail, response.size());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"answer1_ms_p50", segmented(&Window::answer1, 50), "ms"},
        {"answer1_ms_tail", segmented(&Window::answer1, w.tail), "ms"},
        {"answer_gap_ms_p50", segmented(&Window::gaps, 50), "ms"},
        {"response_ms_p50", segmented(&Window::response, 50), "ms"},
        {"response_ms_tail", segmented(&Window::response, w.tail),
         "ms"},
        {"requests_per_s", Median(requests_per_s), "1/s"},
        {"answers_per_s", Median(answers_per_s), "1/s"},
        {"setup_s", Median(setup_s), "s"},
        {"server_rss_mb", *rss, "MB"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Traced run: per-layer self times from the traced replay passes, the
  // tracing overhead against the interleaved untraced ones, and the work
  // counters of the two sequential passes against the server.
  Tracer tracer(true);
  const ReplayTiming replay =
      ReplayAlternating(&replayer, w, expected, &tracer);
  if (!replay.ok) correct = false;
  if (!args.trace_out.empty()) {
    tms::Status written = tracer.WriteJson(args.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    }
  }
  const std::map<std::string, double> self = tracer.SelfMs();
  const double traced_requests =
      static_cast<double>(replay.passes) * static_cast<double>(w.requests.size());
  auto layer_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / traced_requests;
  };
  double mean_response = 0;
  for (double r : response) mean_response += r;
  if (!response.empty()) mean_response /= static_cast<double>(response.size());

  // The gap tail is reported here rather than gated with the end-to-end
  // timings: on batch_exact it measures how a stream of already ranked
  // rows interleaves with the client's wake-ups, and its run-to-run
  // spread there was 0.6.
  metrics = {
      {"answer_gap_ms_tail", segmented(&Window::gaps, w.tail), "ms"},
      {"io.parse_query_ms", layer_ms("io.parse_query"), "ms"},
      {"query.make_enumerator_ms", layer_ms("query.make_enumerator"), "ms"},
      {"ranking.next_ms", layer_ms("ranking.next"), "ms"},
      {"query.confidence_ms", layer_ms("query.confidence"), "ms"},
      {"db.evaluate_all_ms", layer_ms("db.evaluate_all"), "ms"},
      {"dist.rank_ms", layer_ms("dist.rank"), "ms"},
      {"serve.wire_ms", layer_ms("serve.wire"), "ms"},
      {"replay.unattributed_ms", layer_ms("request"), "ms"},
      {"replay.request_ms", replay.plain_ms, "ms"},
      {"trace.overhead_ms", replay.traced_ms - replay.plain_ms, "ms"},
      {"serve.unaccounted_ms", mean_response - replay.plain_ms, "ms"},
      {"serve.registry_load_ms.text", Median(text_ms), "ms"},
      {"serve.registry_load_ms.snapshot", Median(snapshot_ms), "ms"},
  };
  // Work counts should repeat exactly between the two passes; the *_ns
  // histograms are times and are left out of that check.
  int nonrepeating = 0;
  std::string differing;
  for (const char* name : kCounters) {
    const std::string_view n = name;
    const bool is_time = n.size() > 3 && n.substr(n.size() - 3) == "_ns";
    metrics.push_back({name, pass_a[name], is_time ? "ns" : "count"});
    if (!is_time && pass_a[name] != pass_b[name]) {
      ++nonrepeating;
      differing += std::string(differing.empty() ? "" : ", ") + name;
    }
  }
  const double lookups = pass_a["cache.hits"] + pass_a["cache.misses"];
  const double pool_items = pass_a["exec.pool.items"];
  const double server_cpu = *server_cpu_after - *server_cpu_before;
  metrics.push_back({"cache.hit_ratio",
                     lookups > 0 ? pass_a["cache.hits"] / lookups : 0,
                     "ratio"});
  metrics.push_back({"cache.lookups", lookups, "count"});
  metrics.push_back(
      {"exec.pool.worker_share",
       pool_items > 0 ? pass_a["exec.pool.worker_items"] / pool_items : 0,
       "ratio"});
  metrics.push_back({"counters.nonrepeating",
                     static_cast<double>(nonrepeating), "count"});
  metrics.push_back({"loadgen.cpu_share",
                     load.cpu_s / std::max(1e-9, load.cpu_s + server_cpu),
                     "ratio"});
  metrics.push_back({"loadgen.threads", static_cast<double>(clients),
                     "count"});
  metrics.push_back({"loadgen.connections", static_cast<double>(clients),
                     "count"});
  metrics.push_back({"loadgen.refused", static_cast<double>(refused),
                     "count"});
  metrics.push_back({"host.steal_share", steal_share, "ratio"});
  std::printf("replay: %d untraced and %d traced passes of %zu requests; "
              "work counters that differ between two identical passes: "
              "%s\n",
              replay.passes, replay.passes, w.requests.size(),
              differing.empty() ? "none" : differing.c_str());
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  return perfbench::Run(args);
}
