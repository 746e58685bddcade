#ifndef TRMMA_OBS_METRICS_H_
#define TRMMA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracked_mutex.h"

namespace trmma {
namespace obs {

/// Instrumentation levels, cheapest first. kOff makes every TRMMA_SPAN and
/// gated counter a single relaxed load + branch; kMetrics feeds the metric
/// registry (histogram per span site); kTrace additionally records recent
/// spans into the ring buffer of trace.h.
enum class TraceMode { kOff = 0, kMetrics = 1, kTrace = 2 };

namespace internal_obs {
/// Process-wide mode. Initialized from the TRMMA_TRACE environment variable
/// ("1"/"on"/"full" -> kTrace, "metrics" -> kMetrics, otherwise kOff).
extern std::atomic<int> g_trace_mode;
}  // namespace internal_obs

inline TraceMode CurrentTraceMode() {
  return static_cast<TraceMode>(
      internal_obs::g_trace_mode.load(std::memory_order_relaxed));
}

/// Fast gate for hot-path instrumentation: one relaxed load + compare.
inline bool MetricsEnabled() { return CurrentTraceMode() != TraceMode::kOff; }

/// Programmatic override (e.g. bench mains enable kMetrics so reports carry
/// span histograms even without TRMMA_TRACE).
void SetTraceMode(TraceMode mode);

/// Metric labels as key/value pairs; canonicalized (sorted by key) when the
/// metric is registered, so label order does not create duplicates.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Whether histograms capture exemplars (trace ids attached to recent
/// observations). Defaults on; SetExemplarsEnabled(false) disables the
/// capture and the OpenMetrics emission in WriteText.
bool ExemplarsEnabled();
/// Programmatic override (tests, benches).
void SetExemplarsEnabled(bool enabled);

/// One exemplar: an observed value and the trace that produced it.
struct HistogramExemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
};

/// Monotonically increasing counter. Increment is a relaxed atomic add.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-value gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with lock-free recording: per-bucket atomic
/// counters plus atomic count/sum/min/max. Quantiles are estimated by
/// linear interpolation inside the bucket containing the target rank, which
/// is exact enough for latency reporting (p50/p95/p99) with exponential
/// bucket layouts.
class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bounds; an implicit overflow
  /// bucket catches everything above the last bound. An empty vector uses
  /// DefaultLatencyBounds().
  explicit Histogram(std::vector<double> bounds = {});

  /// Non-finite values are dropped (they would poison sum/quantiles) and
  /// tallied in DroppedCount().
  void Observe(double v);

  /// Observe plus exemplar capture: when `exemplar_trace_id` is nonzero and
  /// exemplars are enabled, stamps {v, trace_id} into a small wait-free ring
  /// of recent exemplars so WriteText can link the metric to an offending
  /// trace. With trace_id == 0 this is exactly Observe(v) plus one branch.
  void Observe(double v, uint64_t exemplar_trace_id) {
    Observe(v);
    if (exemplar_trace_id != 0) CaptureExemplar(v, exemplar_trace_id);
  }

  /// Largest-valued of the recent captured exemplars ("recent worst");
  /// false when none were captured since the last Reset.
  bool WorstExemplar(HistogramExemplar* out) const;

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t DroppedCount() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;  ///< 0 when empty
  double Max() const;  ///< 0 when empty
  double Mean() const;
  /// Quantile estimate for q in [0,1]; 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<int64_t> BucketCounts() const;
  void Reset();

  /// Adds `other`'s observations into this histogram (cross-thread / per-
  /// shard aggregation). Requires identical bucket bounds — returns false
  /// and leaves this histogram untouched on a mismatch. Bucket counts are
  /// snapshotted first, so count_ stays consistent with the buckets even if
  /// `other` is being observed concurrently (and self-merge doubles
  /// cleanly). Dropped counts propagate; a non-finite sum in `other` is
  /// skipped rather than poisoning this sum; empty-histogram sentinels never
  /// widen min/max.
  bool Merge(const Histogram& other);

  /// `count` buckets growing geometrically from `start` by `factor`.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int count);
  /// Span-latency default: 1us .. ~67s, factor 2.
  static const std::vector<double>& DefaultLatencyBounds();

 private:
  /// Per-slot seqlock: `ver` is even when the slot is stable, odd while a
  /// writer owns it. Writers claim a slot by CAS and *drop* the exemplar on
  /// contention instead of spinning — the capture path must stay wait-free
  /// because it runs inside Observe on serving hot paths.
  struct ExemplarSlot {
    std::atomic<uint64_t> ver{0};
    std::atomic<double> value{0.0};
    std::atomic<uint64_t> trace_id{0};
  };
  static constexpr int kExemplarSlots = 4;

  void CaptureExemplar(double v, uint64_t trace_id);

  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> dropped_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<uint64_t> exemplar_cursor_{0};
  ExemplarSlot exemplars_[kExemplarSlots];
};

/// Read-only summary of one metric family (all label sets of a name merged),
/// as returned by MetricRegistry::HistogramStatsByName.
struct HistogramStats {
  int64_t count = 0;
  int64_t dropped = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Registry of named metrics. Get* registers on first use and is idempotent:
/// the same name+labels always returns the same object (a histogram's bucket
/// bounds are fixed by the first registration). Returned pointers stay valid
/// for the registry's lifetime — Reset() zeroes values but never deallocates,
/// so call sites may cache them.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry used by spans and library instrumentation.
  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          std::vector<double> bounds = {});

  /// Zeroes every registered metric; registrations (and pointers) survive.
  void Reset();

  /// One line per metric: `counter name{k=v} 42`. Sorted by key.
  std::string TextDump() const;
  /// {"counters":[...],"gauges":[...],"histograms":[...]} — see DESIGN.md.
  std::string JsonDump() const;
  /// Non-blocking JsonDump for the crash path: false (out untouched) when
  /// the registry lock is held, so the postmortem writer degrades the
  /// metrics section to null instead of deadlocking.
  bool TryJsonDump(std::string* out) const;
  /// Prometheus text exposition format (version 0.0.4): `# HELP`/`# TYPE`
  /// once per metric family, sanitized metric names (dots become
  /// underscores), escaped label values, histograms rendered as summaries
  /// with quantile labels plus _sum/_count.
  std::string WriteText() const;

  /// Read-only aggregate lookups over every label set of `name` (used by the
  /// SLO watchdog — never registers anything). Return false when no metric
  /// with that name exists.
  bool SumCountersByName(const std::string& name, int64_t* out) const;
  /// Max across label sets — the conservative reading for threshold checks.
  bool MaxGaugeByName(const std::string& name, double* out) const;
  /// Merges every label set of `name` into a temporary histogram (label sets
  /// whose bounds differ from the first are skipped) and summarizes it.
  bool HistogramStatsByName(const std::string& name, HistogramStats* out) const;
  /// Worst recent exemplar across every label set of `name`; false when the
  /// metric does not exist or no exemplar was captured.
  bool WorstExemplarByName(const std::string& name,
                           HistogramExemplar* out) const;

 private:
  /// Canonical map key: name{k=v,...} with labels sorted by key.
  static std::string MakeKey(const std::string& name, const Labels& labels);

  std::string JsonDumpLocked() const;

  struct Entry {
    std::string name;
    Labels labels;  ///< sorted
  };

  mutable TrackedMutex mu_{"metrics.registry"};
  std::map<std::string, std::pair<Entry, std::unique_ptr<Counter>>> counters_;
  std::map<std::string, std::pair<Entry, std::unique_ptr<Gauge>>> gauges_;
  std::map<std::string, std::pair<Entry, std::unique_ptr<Histogram>>>
      histograms_;
};

}  // namespace obs
}  // namespace trmma

#endif  // TRMMA_OBS_METRICS_H_
