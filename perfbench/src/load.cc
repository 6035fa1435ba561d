#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "dist/client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

bool ReadSmallFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// The score of one answer or batch-row line ("emax" for both).
bool ScoreOf(const std::string& line, double* score) {
  static const std::string kMarker = "\"emax\":";
  const size_t at = line.find(kMarker);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *score = std::strtod(line.c_str() + at + kMarker.size(), &end);
  return end != line.c_str() + at + kMarker.size();
}

}  // namespace

tms::StatusOr<HttpResponse> HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return tms::Status::Internal("socket failed");
  struct timeval tv;
  tv.tv_sec = 10;
  tv.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return tms::Status::Internal("connect failed");
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    close(fd);
    return tms::Status::Internal("send failed");
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      close(fd);
      return tms::Status::Internal("recv failed");
    }
    raw.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t head_end = raw.find("\r\n\r\n");
  const size_t sp = raw.find(' ');
  if (raw.rfind("HTTP/", 0) != 0 || head_end == std::string::npos ||
      sp == std::string::npos) {
    return tms::Status::Internal("bad response to GET " + path);
  }
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + sp + 1);
  response.body = raw.substr(head_end + 4);
  return response;
}

std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || line.find('{') != std::string::npos) {
      continue;
    }
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

tms::StatusOr<CpuTicks> ReadHostCpuTicks() {
  std::string stat;
  if (!ReadSmallFile("/proc/stat", &stat) || stat.rfind("cpu ", 0) != 0) {
    return tms::Status::Internal("cannot read /proc/stat");
  }
  // cpu user nice system idle iowait irq softirq steal ...
  std::istringstream in(stat.substr(4, stat.find('\n') - 4));
  CpuTicks ticks;
  double value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double HostStealShare(const tms::StatusOr<CpuTicks>& before,
                      const tms::StatusOr<CpuTicks>& after) {
  if (!before.ok() || !after.ok() || after->total <= before->total) return 0;
  return (after->steal - before->steal) / (after->total - before->total);
}

tms::StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    std::vector<std::string> argv, const std::string& port_file,
    const std::string& log_path, double* setup_s) {
  argv.push_back("--port=0");
  argv.push_back("--port-file=" + port_file);
  std::vector<char*> cargv;
  for (std::string& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);
  unlink(port_file.c_str());

  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return tms::Status::Internal("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
    }
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid));
  const Clock::time_point give_up = start + std::chrono::seconds(60);
  while (Clock::now() < give_up) {
    int wstatus = 0;
    if (waitpid(pid, &wstatus, WNOHANG) == pid) {
      server->pid_ = -1;
      return tms::Status::Internal("tms_server exited during start-up; see " +
                                   log_path);
    }
    std::string text;
    if (server->port_ == 0 && ReadSmallFile(port_file, &text) &&
        !text.empty() && text.back() == '\n') {
      server->port_ = std::atoi(text.c_str());
    }
    if (server->port_ > 0) {
      auto health = HttpGet(server->port_, "/healthz");
      if (health.ok() && health->status == 200) {
        *setup_s = MsSince(start, Clock::now()) * 1e-3;
        return server;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return tms::Status::DeadlineExceeded("tms_server not healthy after 60 s");
}

ServerProcess::~ServerProcess() { (void)Stop(); }

tms::StatusOr<double> ServerProcess::PeakRssMb() const {
  std::string status;
  if (!ReadSmallFile("/proc/" + std::to_string(pid_) + "/status", &status)) {
    return tms::Status::Internal("cannot read server status");
  }
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return tms::Status::Internal("no VmHWM");
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

tms::StatusOr<double> ServerProcess::CpuSeconds() const {
  std::string stat;
  if (!ReadSmallFile("/proc/" + std::to_string(pid_) + "/stat", &stat)) {
    return tms::Status::Internal("cannot read server stat");
  }
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

tms::Status ServerProcess::Stop() {
  if (pid_ <= 0) return tms::Status::Ok();
  kill(pid_, SIGTERM);
  int wstatus = 0;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  pid_t reaped = 0;
  while ((reaped = waitpid(pid_, &wstatus, WNOHANG)) == 0 &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &wstatus, 0);
  }
  pid_ = -1;
  if (reaped == 0) return tms::Status::Internal("tms_server did not drain");
  return tms::Status::Ok();
}

Sample SendOnce(int port, const Request& request,
                const std::vector<std::string>& expected) {
  Sample sample;
  const Clock::time_point start = Clock::now();
  tms::dist::HttpStream::Options options;
  options.read_timeout_ms = 120000;
  auto stream = tms::dist::HttpStream::Post({"127.0.0.1", port},
                                            request.target, request.body,
                                            options);
  if (!stream.ok()) {
    sample.error = stream.status().message();
    sample.refused = sample.error.find("HTTP 429") != std::string::npos ||
                     sample.error.find("HTTP 503") != std::string::npos;
    return sample;
  }
  std::vector<std::string> lines;
  std::vector<Clock::time_point> arrived;
  for (;;) {
    auto line = (*stream)->NextLine();
    const Clock::time_point now = Clock::now();
    if (!line.ok()) {
      sample.error = "truncated response: " + line.status().message();
      return sample;
    }
    if (!line->has_value()) break;
    lines.push_back(std::move(**line));
    arrived.push_back(now);
  }
  if (lines.empty()) {
    sample.error = "empty response";
    return sample;
  }
  const std::string& footer = lines.back();
  if (footer.rfind("{\"done\":true", 0) != 0 ||
      footer.find("\"error\"") != std::string::npos) {
    sample.error = "bad footer: " + footer;
    return sample;
  }
  sample.answers = static_cast<int>(lines.size()) - 1;
  if (static_cast<size_t>(sample.answers) != expected.size()) {
    sample.error = "answer count " + std::to_string(sample.answers) +
                   " differs from the replay's " +
                   std::to_string(expected.size());
    return sample;
  }
  double previous = 0;
  for (int i = 0; i < sample.answers; ++i) {
    const std::string& line = lines[static_cast<size_t>(i)];
    if (line != expected[static_cast<size_t>(i)]) {
      sample.error = "line " + std::to_string(i) + " differs: " + line;
      return sample;
    }
    double score = 0;
    if (!ScoreOf(line, &score) || (i > 0 && score > previous)) {
      sample.error = "scores not nonincreasing at line " + std::to_string(i);
      return sample;
    }
    previous = score;
  }
  if (sample.answers > 0) sample.answer1_ms = MsSince(start, arrived[0]);
  if (sample.answers > 1) {
    sample.gap_ms = MsSince(arrived[0], arrived[static_cast<size_t>(
                                            sample.answers - 1)]) /
                    (sample.answers - 1);
  }
  sample.response_ms = MsSince(start, arrived.back());
  sample.ok = true;
  return sample;
}

LoadResult RunClosedLoop(int port, const Workload& workload,
                         const std::vector<std::vector<std::string>>& expected,
                         int clients, double seconds, uint64_t seed) {
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        tms::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(c));
        const int64_t last = static_cast<int64_t>(workload.requests.size()) - 1;
        while (Clock::now() < deadline) {
          const size_t i = static_cast<size_t>(rng.UniformInt(0, last));
          const double start_s = MsSince(start, Clock::now()) * 1e-3;
          Sample sample = SendOnce(port, workload.requests[i], expected[i]);
          sample.start_s = start_s;
          per_client[static_cast<size_t>(c)].push_back(std::move(sample));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  LoadResult result;
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  for (auto& samples : per_client) {
    for (Sample& s : samples) result.samples.push_back(std::move(s));
  }
  return result;
}

}  // namespace perfbench
