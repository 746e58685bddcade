// Flags, statistics, set-up, span log and quality helpers of the benchmark.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.h"
#include "eval/metrics.h"
#include "gen/presets.h"
#include "gen/traj_gen.h"
#include "robust/fault_injection.h"
#include "traj/sparsify.h"

namespace trmmabench {

using trmma::Dataset;
using trmma::ExperimentStack;

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "trmma_bench: expected --key value, got '%s'\n",
                   argv[i]);
      std::exit(2);
    }
    std::replace(key.begin(), key.end(), '-', '_');
    flags.values_[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "trmma_bench: flag '%s' has no value\n",
                 argv[argc - 1]);
    std::exit(2);
  }
  return flags;
}

std::string Flags::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "trmma_bench: missing flag --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double Flags::Num(const std::string& key) const {
  const std::string text = Str(key);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "trmma_bench: --%s: not a number: '%s'\n",
                 key.c_str(), text.c_str());
    std::exit(2);
  }
  return v;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CurrentRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double SpeedProbe::KernelSeconds(int reps) {
  static double a[32][32];
  static double b[32][32];
  static double c[32][32];
  static volatile double sink = 0.0;
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < 32; ++i) {
      for (int j = 0; j < 32; ++j) {
        a[i][j] = 1.0 / (i + j + 1);
        b[i][j] = 0.5 / (i + 2 * j + 1);
        c[i][j] = 0.0;
      }
    }
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < 12; ++r) {
      for (int i = 0; i < 32; ++i) {
        for (int k = 0; k < 32; ++k) {
          const double x = a[i][k];
          for (int j = 0; j < 32; ++j) c[i][j] += x * b[k][j];
        }
      }
    }
    times.push_back(SecondsBetween(t0, Clock::now()));
    sink = sink + c[3][4];
  }
  return Median(times);
}

SpeedProbe ProbeFromFlags(const Flags& flags) {
  return SpeedProbe(flags.Num("calibration_reference_s"));
}

std::unique_ptr<Setup> RunSetup(const Flags& flags, bool with_session) {
  auto preset_or = trmma::GetCityPreset(flags.Str("city"));
  if (!preset_or.ok()) {
    std::fprintf(stderr, "trmma_bench: %s\n",
                 preset_or.status().ToString().c_str());
    std::exit(2);
  }
  const trmma::CityPreset& preset = preset_or.value();
  auto setup = std::make_unique<Setup>();
  const SpeedProbe probe = ProbeFromFlags(flags);
  const int reps = flags.Int("calibration_reps");
  std::vector<double> speeds = {probe.Measure(reps)};
  // Wall seconds of one stage, followed by a probe.
  auto stage = [&](auto&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    const double seconds = SecondsBetween(t0, Clock::now());
    speeds.push_back(probe.Measure(reps));
    return seconds;
  };

  // The network and the training data are the preset's own (its fixed
  // seed): every workload seed runs the same trained system.
  setup->dataset_s = stage([&] {
    auto dataset_or =
        trmma::BuildCityDataset(preset, flags.Int("world_trajectories"));
    if (!dataset_or.ok()) {
      std::fprintf(stderr, "trmma_bench: dataset: %s\n",
                   dataset_or.status().ToString().c_str());
      std::exit(2);
    }
    setup->dataset = std::make_unique<Dataset>(std::move(dataset_or).value());
  });
  setup->stack_s = stage([&] {
    setup->stack = std::make_unique<ExperimentStack>(
        trmma::BuildStack(*setup->dataset, trmma::StackConfig{}));
  });
  // Fixed, light training on a fixed number of training trajectories: the
  // weights are the same in every run and never depend on timing.
  setup->train_s = stage([&] {
    const double fraction = std::min(
        1.0, flags.Num("train_trajectories") /
                 std::max<double>(1.0, setup->dataset->train_idx.size()));
    trmma::TrainMma(*setup->stack, flags.Int("mma_epochs"), fraction);
    trmma::TrainTrmma(*setup->stack, flags.Int("trmma_epochs"), fraction);
  });
  if (with_session) {
    // A disabled injector: TRMMA_FAULTS in the environment cannot corrupt
    // requests.
    static trmma::FaultInjector* const no_faults =
        new trmma::FaultInjector(trmma::FaultInjectionConfig{});
    trmma::serve::SessionConfig config;
    config.serve.threads = flags.Int("serve_threads");
    config.serve.queue_cap = flags.Int("queue_cap");
    config.serve.deadline_ms = flags.Num("deadline_ms");
    config.serve.shed_p99_us = 0.0;
    config.serve.faults = no_faults;
    config.epsilon = setup->dataset->epsilon_s;
    const double rss_before = CurrentRssMb();
    setup->session_s = stage([&] {
      auto session_or =
          trmma::serve::ServingSession::Create(*setup->stack, config);
      if (!session_or.ok()) {
        std::fprintf(stderr, "trmma_bench: session: %s\n",
                     session_or.status().ToString().c_str());
        std::exit(2);
      }
      setup->session = std::move(session_or).value();
    });
    setup->session_rss_mb = CurrentRssMb() - rss_before;
  }
  const double speed = Median(speeds);
  setup->dataset_s *= speed;
  setup->stack_s *= speed;
  setup->train_s *= speed;
  setup->session_s *= speed;
  return setup;
}

void MakeInputs(const Flags& flags, uint64_t seed, Setup* setup) {
  const trmma::CityPreset preset =
      trmma::GetCityPreset(flags.Str("city")).value();
  trmma::TrajectoryGenerator generator(*setup->dataset->network, preset.traj);
  trmma::Rng rng(seed * 0xD1B54A32D192ED03ull + 1);
  const int count = flags.Int("trajectories");
  setup->inputs.clear();
  while (static_cast<int>(setup->inputs.size()) < count) {
    auto sample_or = generator.Generate(rng);
    if (!sample_or.ok()) {
      std::fprintf(stderr, "trmma_bench: inputs: %s\n",
                   sample_or.status().ToString().c_str());
      std::exit(2);
    }
    trmma::SparsifySample(sample_or.value(), preset.gamma, rng);
    if (sample_or->sparse.size() >= 2 && sample_or->raw.size() >= 2) {
      setup->inputs.push_back(std::move(sample_or).value());
    }
  }
}

int SpanLog::Open(const char* name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = Clock::now();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int id) { spans_[id].end = Clock::now(); }

int SpanLog::Add(const char* name, int parent, Clock::time_point start,
                 Clock::time_point end) {
  spans_.push_back(Span{name, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Seconds(int id) const {
  return SecondsBetween(spans_[id].start, spans_[id].end);
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += SecondsBetween(s.start, s.end);
  }
  return total;
}

double SpanLog::SelfSeconds(const std::string& name) const {
  double self = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) self += SecondsBetween(s.start, s.end);
    if (s.parent >= 0 && name == spans_[s.parent].name) {
      self -= SecondsBetween(s.start, s.end);
    }
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 SecondsBetween(origin, s.start) * 1e6,
                 SecondsBetween(s.start, s.end) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void QualityTally::AddRoute(const trmma::Route& route,
                            const trmma::Route& truth) {
  f1_sum += trmma::SegmentSetMetrics(route, truth).f1;
  ++f1_n;
}

void QualityTally::AddPoints(const trmma::RoadNetwork& network,
                             trmma::ShortestPathEngine& engine,
                             const trmma::MatchedTrajectory& pred,
                             const trmma::MatchedTrajectory& truth) {
  acc_sum += trmma::PointwiseAccuracy(pred, truth);
  mae_sum += trmma::RecoveryDistanceErrors(network, engine, pred, truth).mae;
  ++point_n;
}

void QualityTally::AddRecovery(const trmma::RoadNetwork& network,
                               trmma::ShortestPathEngine& engine,
                               const trmma::MatchedTrajectory& pred,
                               const trmma::MatchedTrajectory& truth) {
  std::vector<trmma::SegmentId> pred_segs;
  std::vector<trmma::SegmentId> truth_segs;
  for (const trmma::MatchedPoint& p : pred) pred_segs.push_back(p.segment);
  for (const trmma::MatchedPoint& p : truth) truth_segs.push_back(p.segment);
  AddRoute(pred_segs, truth_segs);
  AddPoints(network, engine, pred, truth);
}

void QualityTally::Publish(RunResult* result) const {
  result->metrics["f1"] = f1_n > 0 ? f1_sum / f1_n : 0.0;
  result->metrics["accuracy"] = point_n > 0 ? acc_sum / point_n : 0.0;
  result->metrics["mae_m"] = point_n > 0 ? mae_sum / point_n : 0.0;
}

trmma::Route JoinSections(const std::vector<trmma::RouteSection>& sections) {
  trmma::Route route;
  for (const trmma::RouteSection& s : sections) {
    route.insert(route.end(), s.route.begin(), s.route.end());
  }
  return route;
}

int64_t DisconnectedSteps(const trmma::RoadNetwork& network,
                          const std::vector<trmma::RouteSection>& sections) {
  int64_t bad = 0;
  for (const trmma::RouteSection& s : sections) {
    if (s.route.empty()) ++bad;
    for (size_t i = 0; i + 1 < s.route.size(); ++i) {
      const std::vector<trmma::SegmentId>& next =
          network.NextSegments(s.route[i]);
      if (std::find(next.begin(), next.end(), s.route[i + 1]) == next.end()) {
        ++bad;
      }
    }
  }
  return bad;
}

}  // namespace trmmabench
