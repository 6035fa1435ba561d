// tms_server — long-lived HTTP server streaming ranked answers.
//
//   tms_server [flags] <name>=<sequence-file>...
//
// Loads every named model once at startup (serve/registry.h), then
// answers queries over a minimal HTTP/1.1 interface (serve/server.h):
//
//   GET  /healthz          liveness probe
//   GET  /metrics          Prometheus text exposition (docs/OBSERVABILITY.md)
//   GET  /models           the registered model names
//   POST /query/<name>     body = transducer or s-projector text format;
//                          response = chunked NDJSON, one ranked answer
//                          per line as the enumerator emits it, then a
//                          {"done":true,"exec":{...}} footer with the
//                          structured stop reason.
//
// Flags:
//   --port=N            TCP port (default 0 = kernel-assigned ephemeral)
//   --host=ADDR         bind address (default 127.0.0.1)
//   --threads=N         total engine concurrency shared by all queries
//                       (one exec::ThreadPool for the whole server)
//   --max-inflight=N    admission limit; excess queries get 429
//   --max-connections=N open-connection cap; excess connections get 503
//   --backend=dense|sparse|auto  default kernel backend (per-request
//                       ?backend= overrides)
//   --precompile=<model>:<name>=<query-file>  parse the transducer query
//                       file once at startup and serve it by name via
//                       ?precompiled=<name> with an empty body; the
//                       stream is byte-identical to sending the file's
//                       text as the body. May repeat.
//   --port-file=PATH    write the bound port to PATH once listening
//                       (scripts bind port 0 and read this back)
//
// SIGINT/SIGTERM drain gracefully: stop accepting, cancel every in-flight
// stream at its next answer boundary (CANCELLED footer), join, exit 0.
// See docs/SERVING.md.

#include <signal.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "exec/fault.h"
#include "kernels/backend.h"
#include "obs/obs.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace {

using namespace tms;

int Usage() {
  std::fprintf(
      stderr,
      "usage: tms_server [--port=N] [--host=ADDR] [--threads=N]\n"
      "                  [--max-inflight=N] [--max-connections=N]\n"
      "                  [--backend=dense|sparse|auto]\n"
      "                  [--precompile=<model>:<name>=<query-file>]...\n"
      "                  [--port-file=PATH] <name>=<sequence-file>...\n");
  return 2;
}

bool ParseIntFlag(const char* what, std::string_view value, int64_t lo,
                  int64_t hi, int* out) {
  int64_t parsed = 0;
  if (!ParseNonNegInt64(value, &parsed) || parsed < lo || parsed > hi) {
    std::fprintf(stderr,
                 "error: invalid %s value '%.*s' (expected integer in "
                 "[%lld, %lld])\n",
                 what, static_cast<int>(value.size()), value.data(),
                 static_cast<long long>(lo), static_cast<long long>(hi));
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::string port_file;
  std::vector<std::pair<std::string, std::string>> model_specs;
  // (model, name, query-file) triples from --precompile flags.
  std::vector<std::array<std::string, 3>> precompile_specs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string_view view = arg;
    if (view.rfind("--port=", 0) == 0) {
      if (!ParseIntFlag("--port", view.substr(7), 0, 65535, &options.port)) {
        return Usage();
      }
    } else if (view.rfind("--host=", 0) == 0) {
      options.host = std::string(view.substr(7));
    } else if (view.rfind("--threads=", 0) == 0) {
      if (!ParseIntFlag("--threads", view.substr(10), 1, 1024,
                        &options.threads)) {
        return Usage();
      }
    } else if (view.rfind("--max-inflight=", 0) == 0) {
      if (!ParseIntFlag("--max-inflight", view.substr(15), 0, 1 << 20,
                        &options.max_inflight)) {
        return Usage();
      }
    } else if (view.rfind("--max-connections=", 0) == 0) {
      if (!ParseIntFlag("--max-connections", view.substr(18), 1, 1 << 20,
                        &options.max_connections)) {
        return Usage();
      }
    } else if (view.rfind("--backend=", 0) == 0) {
      auto choice =
          kernels::ParseBackendChoice(std::string(view.substr(10)));
      if (!choice.has_value()) {
        std::fprintf(stderr, "error: invalid --backend value in '%s'\n",
                     arg.c_str());
        return Usage();
      }
      options.backend = *choice;
    } else if (view.rfind("--precompile=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--precompile="));
      const size_t colon = spec.find(':');
      const size_t eq = spec.find('=', colon == std::string::npos ? 0 : colon);
      if (colon == std::string::npos || eq == std::string::npos ||
          colon == 0 || eq <= colon + 1 || eq + 1 == spec.size()) {
        std::fprintf(stderr,
                     "error: --precompile spec must be "
                     "<model>:<name>=<query-file>, got '%s'\n",
                     arg.c_str());
        return Usage();
      }
      precompile_specs.push_back({spec.substr(0, colon),
                                  spec.substr(colon + 1, eq - colon - 1),
                                  spec.substr(eq + 1)});
    } else if (view.rfind("--port-file=", 0) == 0) {
      port_file = std::string(view.substr(12));
    } else if (view.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
        std::fprintf(stderr,
                     "error: model spec must be <name>=<file>, got '%s'\n",
                     arg.c_str());
        return Usage();
      }
      model_specs.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
  if (model_specs.empty()) {
    std::fprintf(stderr, "error: at least one <name>=<sequence-file> model "
                         "is required\n");
    return Usage();
  }

  // A server is an observability consumer by definition: /metrics is an
  // endpoint, so the registry must be recording.
  obs::SetEnabled(true);

#if TMS_FAULTS_ACTIVE
  // Fault-testing builds honor TMS_FAULT_INJECT ("point:kind:nth[;...]")
  // so robustness harnesses (tools/dist_smoke.sh) can kill a worker
  // mid-stream without patching the binary.
  exec::FaultInjector::Global().ArmFromEnv();
#endif

  auto registry = serve::ModelRegistry::Load(model_specs);
  if (!registry.ok()) {
    std::fprintf(stderr, "error: %s\n", registry.status().ToString().c_str());
    return 1;
  }
  for (const std::string& name : registry->Names()) {
    std::fprintf(stderr, "loaded model '%s'\n", name.c_str());
  }
  for (const auto& spec : precompile_specs) {
    Status st = registry->Precompile(spec[0], spec[1], spec[2]);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "precompiled query '%s:%s' from %s\n",
                 spec[0].c_str(), spec[1].c_str(), spec[2].c_str());
  }

  // Block the termination signals BEFORE any thread exists so every
  // thread inherits the mask and sigwait below is the only receiver.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  serve::HttpServer server(std::move(*registry), options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write --port-file=%s\n",
                   port_file.c_str());
      server.Shutdown();
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }
  std::fprintf(stderr, "tms_server listening on %s:%d\n",
               options.host.c_str(), server.port());
  std::fflush(stderr);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "received %s, draining\n",
               sig == SIGTERM ? "SIGTERM" : "SIGINT");
  server.Shutdown();
  std::fprintf(stderr, "drained, exiting\n");
  return 0;
}
