// The benchmark's side of the wire: a tms_server child process, a plain
// GET for /healthz and /metrics, and the closed-loop clients that drive
// the served path and byte-check every response.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "workloads.h"

namespace perfbench {

/// GET http://127.0.0.1:<port><path>; returns the status code and body.
struct HttpResponse {
  int status = 0;
  std::string body;
};
tms::StatusOr<HttpResponse> HttpGet(int port, const std::string& path);

/// Parses a Prometheus text exposition into {series name -> value};
/// labelled series (histogram buckets) are skipped.
std::map<std::string, double> ParsePrometheus(const std::string& text);

/// The host's CPU time counters from /proc/stat: {total, steal} ticks.
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
tms::StatusOr<CpuTicks> ReadHostCpuTicks();
/// Share of the CPU time between the two readings that was stolen; 0
/// when either could not be read.
double HostStealShare(const tms::StatusOr<CpuTicks>& before,
                      const tms::StatusOr<CpuTicks>& after);

/// A tms_server child. Stopped (SIGTERM, then SIGKILL) and reaped by
/// Stop() or the destructor; it also receives SIGTERM if the benchmark
/// dies first.
class ServerProcess {
 public:
  /// Spawns `argv` (argv[0] = the binary) with --port=0 and
  /// --port-file=<port_file> appended and its output sent to `log_path`,
  /// then waits until GET /healthz returns 200. `*setup_s` is the time
  /// from spawn to that 200.
  static tms::StatusOr<std::unique_ptr<ServerProcess>> Start(
      std::vector<std::string> argv, const std::string& port_file,
      const std::string& log_path, double* setup_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Peak resident set size (VmHWM), in MB.
  tms::StatusOr<double> PeakRssMb() const;
  /// User + system CPU seconds consumed so far.
  tms::StatusOr<double> CpuSeconds() const;
  /// SIGTERM, wait for the drain; SIGKILL if it takes over 10 s.
  tms::Status Stop();

 private:
  ServerProcess(pid_t pid) : pid_(pid) {}

  pid_t pid_;
  int port_ = 0;
};

/// One served request as the client saw it. Times are from the moment
/// the connection is opened.
struct Sample {
  bool ok = false;
  bool refused = false;  ///< HTTP 429 or 503
  std::string error;
  int answers = 0;
  double start_s = 0;  ///< when it was sent, from the start of the window
  double answer1_ms = -1;  ///< -1 when the response had no answer line
  double response_ms = 0;  ///< until the footer line
  /// Mean time between consecutive answer lines; -1 below two answers.
  /// Averaged within the response because lines that arrive together
  /// (a /batch response streams rows it has already ranked) are split
  /// apart by the client in a few hundred nanoseconds, which would make
  /// single gaps measure the client's wake-up rather than the server.
  double gap_ms = -1;
};

/// Sends `request` once and checks the response: HTTP 200, every answer
/// line byte-equal to `expected` in order, scores nonincreasing, and a
/// `"done":true` footer without an error as the last line.
Sample SendOnce(int port, const Request& request,
                const std::vector<std::string>& expected);

/// Drives `clients` closed-loop clients for `seconds`: each client sends
/// its next request only after the previous response ended. Requests are
/// drawn per client from a generator seeded by `seed`. Requests in flight
/// at the deadline run to completion and count.
struct LoadResult {
  std::vector<Sample> samples;
  double cpu_s = 0;  ///< the load generator's own CPU time
};
LoadResult RunClosedLoop(int port, const Workload& workload,
                         const std::vector<std::vector<std::string>>& expected,
                         int clients, double seconds, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
