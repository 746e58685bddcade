// crash_demo: deliberately kills a serving process so the crash-smoke
// harness (scripts/crash_smoke.py) can validate the postmortem pipeline end
// to end — handler installation, all-thread stack capture, in-flight
// request snapshot, report write, and offline validation via
// `trmma_inspect postmortem` / scripts/check_postmortem_json.py.
//
//   crash_demo <postmortem_dir> [mode]
//
//   mode "crash" (default): arms the serve.worker.crash fault point
//     (common/fault_points.h) while several sleepy requests are in flight,
//     so a real worker faults mid-request and the report shows a genuine
//     serving stack plus the requests around it. Exits via SIGSEGV.
//   mode "wait": starts serving, prints "ready pid=... postmortem=...",
//     and sleeps — the harness delivers the fatal signal externally
//     (kill -SEGV), the black-box equivalent of a production crash.
//   mode "clean": starts and stops the engine, exits 0 (harness sanity
//     check that the demo itself is healthy).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_points.h"
#include "obs/postmortem.h"
#include "serve/engine.h"
#include "traj/types.h"

namespace trmma {
namespace {

/// Worker that sleeps through every request so the harness has a window
/// where requests are reliably in flight when the fault fires.
class SleepyWorker : public serve::Worker {
 public:
  explicit SleepyWorker(int sleep_ms) : sleep_ms_(sleep_ms) {}

  Status Match(const Trajectory& traj, serve::MatchOutput* out) override {
    (void)traj;
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    out->segments.clear();
    out->sections.clear();
    return Status::OK();
  }

  Status Recover(const Trajectory& traj, double epsilon,
                 MatchedTrajectory* out, bool* degraded) override {
    (void)traj;
    (void)epsilon;
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    out->clear();
    *degraded = false;
    return Status::OK();
  }

 private:
  int sleep_ms_;
};

std::atomic<bool> g_armed{false};

bool CrashFaultHandler(void* ctx, const char* site) {
  (void)ctx;
  return g_armed.load(std::memory_order_acquire) &&
         std::strcmp(site, "serve.worker.crash") == 0;
}

serve::ServeRequest MakeRequest() {
  serve::ServeRequest request;
  request.kind = serve::RequestKind::kMatch;
  for (int i = 0; i < 4; ++i) {
    GpsPoint p;
    p.pos.lat = 0.001 * i;
    p.pos.lng = 0.001 * i;
    p.t = static_cast<double>(i);
    request.traj.points.push_back(p);
  }
  return request;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: crash_demo <postmortem_dir> [crash|wait|clean]\n");
    return 2;
  }
  const std::string dir = argv[1];
  const std::string mode = argc >= 3 ? argv[2] : "crash";

  const Status installed = obs::InstallCrashHandler(dir);
  if (!installed.ok()) {
    std::fprintf(stderr, "crash_demo: %s\n", installed.ToString().c_str());
    return 2;
  }

  serve::ServeConfig config;
  config.threads = 3;
  config.queue_cap = 32;
  config.deadline_ms = 10000.0;  // generous: sleeps must not time out
  serve::ServeEngine engine(config, std::make_unique<SleepyWorker>(400));
  const Status started = engine.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "crash_demo: %s\n", started.ToString().c_str());
    return 2;
  }

  InstallFaultHandler(&CrashFaultHandler, nullptr);

  // Fill every worker with a sleepy request plus a queued backlog, so the
  // postmortem has in-flight requests in both states.
  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(engine.Submit(MakeRequest()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("ready pid=%d postmortem=%s\n", static_cast<int>(::getpid()),
              obs::PostmortemPath().c_str());
  std::fflush(stdout);

  if (mode == "crash") {
    // The next worker to pick up a request hits the fault point and
    // faults; the two other workers are still asleep mid-request, so the
    // report captures their stacks and trace ids too.
    g_armed.store(true, std::memory_order_release);
    for (auto& f : futures) f.wait();  // unreachable: the fault fires first
    std::fprintf(stderr, "crash_demo: fault point never fired\n");
    return 3;
  }
  if (mode == "wait") {
    // Keep requests flowing so an externally delivered signal always finds
    // work in flight; the harness kills us within a few seconds.
    for (int i = 0; i < 600; ++i) {
      futures.push_back(engine.Submit(MakeRequest()));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "crash_demo: harness never delivered a signal\n");
    return 3;
  }
  if (mode == "clean") {
    for (auto& f : futures) f.wait();
    engine.Stop();
    std::printf("clean exit\n");
    return 0;
  }
  std::fprintf(stderr, "crash_demo: unknown mode %s\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace trmma

int main(int argc, char** argv) { return trmma::Main(argc, argv); }
