#include "exec/fault.h"

#if TMS_FAULTS_ACTIVE

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/obs.h"

namespace tms::exec {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

bool FaultInjector::HitSlow(const char* point) {
  // Select the firing actions under the lock, run them outside it: a delay
  // must not serialize unrelated points (or a caller's own lock) and a
  // callback may legitimately re-enter Hit.
  std::vector<Action> fired;
  int64_t hit = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Point& p = points_[point];
    hit = ++p.hits;
    for (const Action& action : p.actions) {
      if (action.nth_hit == 0 || action.nth_hit == hit) {
        fired.push_back(action);
      }
    }
  }
  TMS_OBS_COUNT("exec.fault.hits", 1);
  bool fail = false;
  for (const Action& action : fired) {
    switch (action.kind) {
      case Action::Kind::kDelay:
        TMS_OBS_COUNT("exec.fault.delays", 1);
        std::this_thread::sleep_for(action.delay);
        break;
      case Action::Kind::kCancel:
        TMS_OBS_COUNT("exec.fault.cancels", 1);
        action.token.Cancel();
        break;
      case Action::Kind::kFail:
        TMS_OBS_COUNT("exec.fault.failures", 1);
        fail = true;
        break;
      case Action::Kind::kCallback:
        action.fn(hit);
        break;
    }
  }
  return fail;
}

void FaultInjector::AddAction(const std::string& point, Action action) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    points_[point].actions.push_back(std::move(action));
  }
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::ScheduleDelay(const std::string& point, int64_t nth_hit,
                                  std::chrono::nanoseconds delay) {
  Action a;
  a.kind = Action::Kind::kDelay;
  a.nth_hit = nth_hit;
  a.delay = delay;
  AddAction(point, std::move(a));
}

void FaultInjector::ScheduleCancel(const std::string& point, int64_t nth_hit,
                                   CancelToken token) {
  Action a;
  a.kind = Action::Kind::kCancel;
  a.nth_hit = nth_hit;
  a.token = std::move(token);
  AddAction(point, std::move(a));
}

void FaultInjector::ScheduleFailure(const std::string& point,
                                    int64_t nth_hit) {
  Action a;
  a.kind = Action::Kind::kFail;
  a.nth_hit = nth_hit;
  AddAction(point, std::move(a));
}

void FaultInjector::ScheduleCallback(const std::string& point,
                                     int64_t nth_hit,
                                     std::function<void(int64_t)> fn) {
  Action a;
  a.kind = Action::Kind::kCallback;
  a.nth_hit = nth_hit;
  a.fn = std::move(fn);
  AddAction(point, std::move(a));
}

Status FaultInjector::ArmFromSpec(std::string_view spec) {
  while (!spec.empty()) {
    const size_t semi = spec.find(';');
    std::string_view clause =
        semi == std::string_view::npos ? spec : spec.substr(0, semi);
    spec = semi == std::string_view::npos ? std::string_view()
                                          : spec.substr(semi + 1);
    if (clause.empty()) continue;
    const size_t c1 = clause.find(':');
    const size_t c2 = c1 == std::string_view::npos
                          ? std::string_view::npos
                          : clause.find(':', c1 + 1);
    if (c2 == std::string_view::npos) {
      return Status::InvalidArgument("fault spec clause needs point:kind:nth: '" +
                                     std::string(clause) + "'");
    }
    const std::string point(clause.substr(0, c1));
    const std::string_view kind = clause.substr(c1 + 1, c2 - c1 - 1);
    const std::string_view nth_text = clause.substr(c2 + 1);
    int64_t nth = 0;
    if (nth_text.empty()) {
      return Status::InvalidArgument("fault spec clause missing nth: '" +
                                     std::string(clause) + "'");
    }
    for (char c : nth_text) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad nth in fault spec clause '" +
                                       std::string(clause) + "'");
      }
      nth = nth * 10 + (c - '0');
    }
    if (point.empty()) {
      return Status::InvalidArgument("empty point in fault spec clause '" +
                                     std::string(clause) + "'");
    }
    if (kind == "fail") {
      ScheduleFailure(point, nth);
    } else if (kind == "exit") {
      // A worker "crash": no atexit, no stream flush — whatever chunk was
      // in flight is simply cut. Exit code 17 so harnesses can tell an
      // injected crash from a real one.
      ScheduleCallback(point, nth, [](int64_t) { std::_Exit(17); });
    } else if (kind.substr(0, 5) == "delay" && kind.size() > 7 &&
               kind.substr(kind.size() - 2) == "ms") {
      int64_t ms = 0;
      for (char c : kind.substr(5, kind.size() - 7)) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("bad delay in fault spec clause '" +
                                         std::string(clause) + "'");
        }
        ms = ms * 10 + (c - '0');
      }
      ScheduleDelay(point, nth, std::chrono::milliseconds(ms));
    } else {
      return Status::InvalidArgument("unknown kind in fault spec clause '" +
                                     std::string(clause) + "'");
    }
  }
  return Status::Ok();
}

void FaultInjector::ArmFromEnv() {
  const char* spec = std::getenv("TMS_FAULT_INJECT");
  if (spec == nullptr || *spec == '\0') return;
  Status armed = ArmFromSpec(spec);
  if (!armed.ok()) {
    std::fprintf(stderr, "TMS_FAULT_INJECT ignored: %s\n",
                 armed.ToString().c_str());
  }
}

void FaultInjector::Arm() { armed_.store(true, std::memory_order_release); }

void FaultInjector::Reset() {
  armed_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

int64_t FaultInjector::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

std::vector<std::string> FaultInjector::SeenPoints() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, point] : points_) {
    if (point.hits > 0) out.push_back(name);
  }
  return out;
}

}  // namespace tms::exec

#endif  // TMS_FAULTS_ACTIVE
