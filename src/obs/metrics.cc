#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json.h"

namespace trmma {
namespace obs {
namespace internal_obs {
namespace {

int ModeFromEnv() {
  const char* env = std::getenv("TRMMA_TRACE");
  if (env == nullptr || *env == '\0') {
    // Asking for a trace file is asking for tracing.
    const char* file = std::getenv("TRMMA_TRACE_FILE");
    if (file != nullptr && *file != '\0') {
      return static_cast<int>(TraceMode::kTrace);
    }
    return static_cast<int>(TraceMode::kOff);
  }
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
    return static_cast<int>(TraceMode::kOff);
  }
  if (std::strcmp(env, "metrics") == 0) {
    return static_cast<int>(TraceMode::kMetrics);
  }
  // "1", "on", "full", or anything else truthy: full tracing.
  return static_cast<int>(TraceMode::kTrace);
}

}  // namespace

std::atomic<int> g_trace_mode{ModeFromEnv()};

namespace {
/// The lock gate folds the trace mode together with the lock-order opt-in
/// (tracked_mutex.cc); recompute it once this TU's env init has run. Both
/// TUs' initializers refresh, so cross-TU init order doesn't matter.
const bool g_lock_gate_refreshed = [] {
  RefreshLockGate();
  return true;
}();
}  // namespace

}  // namespace internal_obs

void SetTraceMode(TraceMode mode) {
  internal_obs::g_trace_mode.store(static_cast<int>(mode),
                                   std::memory_order_relaxed);
  internal_obs::RefreshLockGate();
}

namespace {

// Default on: capture is wait-free and a few ns.
std::atomic<int> g_exemplars_enabled{1};

}  // namespace

bool ExemplarsEnabled() {
  return g_exemplars_enabled.load(std::memory_order_relaxed) != 0;
}

void SetExemplarsEnabled(bool enabled) {
  g_exemplars_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

namespace {

/// Relaxed add for atomic<double> via CAS (fetch_add on double is C++20 but
/// not guaranteed lock-free everywhere; the CAS loop is portable and the
/// contention profile here is low).
void AtomicAdd(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

constexpr double kEmptyMin = 1e300;
constexpr double kEmptyMax = -1e300;

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(kEmptyMax, std::memory_order_relaxed);
}

void Histogram::Observe(double v) {
  if (!std::isfinite(v)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

void Histogram::CaptureExemplar(double v, uint64_t trace_id) {
  if (!std::isfinite(v) || !ExemplarsEnabled()) return;
  // Rotate through the slots so the ring always holds the most *recent*
  // exemplar-carrying observations; the worst of them is picked at read
  // time. On writer/writer contention for one slot the loser drops its
  // exemplar — never spins — because this runs inside Observe on hot paths.
  const uint64_t idx =
      exemplar_cursor_.fetch_add(1, std::memory_order_relaxed) %
      kExemplarSlots;
  ExemplarSlot& slot = exemplars_[idx];
  uint64_t ver = slot.ver.load(std::memory_order_relaxed);
  if (ver & 1) return;  // another writer owns the slot
  if (!slot.ver.compare_exchange_strong(ver, ver + 1,
                                        std::memory_order_acq_rel)) {
    return;
  }
  slot.value.store(v, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.ver.store(ver + 2, std::memory_order_release);
}

bool Histogram::WorstExemplar(HistogramExemplar* out) const {
  HistogramExemplar best;
  bool found = false;
  for (const ExemplarSlot& slot : exemplars_) {
    const uint64_t v1 = slot.ver.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1)) continue;  // never written / mid-write
    const double value = slot.value.load(std::memory_order_relaxed);
    const uint64_t trace_id = slot.trace_id.load(std::memory_order_relaxed);
    if (slot.ver.load(std::memory_order_acquire) != v1) continue;  // torn
    if (trace_id == 0) continue;
    if (!found || value > best.value) {
      best.value = value;
      best.trace_id = trace_id;
      found = true;
    }
  }
  if (found && out != nullptr) *out = best;
  return found;
}

double Histogram::Min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return m == kEmptyMin ? 0.0 : m;
}

double Histogram::Max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return m == kEmptyMax ? 0.0 : m;
}

double Histogram::Mean() const {
  const int64_t n = Count();
  return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
}

double Histogram::Quantile(double q) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Snapshot min/max once. A Reset() racing this read can leave the
  // sentinels in place while bucket counts are nonzero; treating that as
  // empty beats interpolating against 1e300.
  const double min_snap = min_.load(std::memory_order_relaxed);
  const double max_snap = max_.load(std::memory_order_relaxed);
  if (min_snap > max_snap) return 0.0;
  // NaN slips through std::clamp (both comparisons are false) and would
  // make every `next >= target` test fail, silently returning max.
  if (std::isnan(q)) return Min();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  int64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const int64_t next = cum + counts[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate inside bucket i. Bucket range: (lower, upper], with the
      // observed min/max tightening the outermost buckets.
      double lower = i == 0 ? min_snap : bounds_[i - 1];
      double upper = i < bounds_.size() ? bounds_[i] : max_snap;
      lower = std::max(lower, min_snap);
      upper = std::min(upper, max_snap);
      if (upper < lower) upper = lower;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return max_snap;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  // Clear min/max to the empty sentinels first: Quantile treats the
  // inverted pair as "empty" and bails, so a reader racing this reset gets
  // 0 instead of an interpolation against stale extremes.
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(kEmptyMax, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  // Drop retained exemplars: ver back to "never written" keeps readers from
  // resurrecting pre-reset trace ids. A capture racing this reset may land
  // after the clear, which is indistinguishable from landing after Reset.
  for (ExemplarSlot& slot : exemplars_) {
    slot.trace_id.store(0, std::memory_order_relaxed);
    slot.value.store(0.0, std::memory_order_relaxed);
    slot.ver.store(0, std::memory_order_release);
  }
}

bool Histogram::Merge(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  // Snapshot the source buckets first and derive the merged count from that
  // snapshot: if `other` is being observed concurrently, count_ stays
  // consistent with what actually landed in our buckets (and self-merge
  // doubles cleanly instead of reading its own half-updated state).
  const std::vector<int64_t> counts = other.BucketCounts();
  int64_t n = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
      n += counts[i];
    }
  }
  count_.fetch_add(n, std::memory_order_relaxed);
  dropped_.fetch_add(other.dropped_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  const double sum = other.sum_.load(std::memory_order_relaxed);
  if (std::isfinite(sum)) AtomicAdd(sum_, sum);
  // Raw loads keep the empty sentinels visible: an empty source has
  // min > max and must not widen our extremes.
  const double mn = other.min_.load(std::memory_order_relaxed);
  const double mx = other.max_.load(std::memory_order_relaxed);
  if (mn <= mx) {
    AtomicMin(min_, mn);
    AtomicMax(max_, mx);
  }
  return true;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int count) {
  std::vector<double> out;
  out.reserve(count);
  double b = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

const std::vector<double>& Histogram::DefaultLatencyBounds() {
  static const std::vector<double> bounds = ExponentialBounds(1.0, 2.0, 27);
  return bounds;
}

namespace {

void InstallMetricsFileAtExit() {
  const char* path = std::getenv("TRMMA_METRICS_FILE");
  if (path == nullptr || *path == '\0') return;
  std::atexit([] {
    const char* p = std::getenv("TRMMA_METRICS_FILE");
    if (p == nullptr || *p == '\0') return;
    const std::string text = MetricRegistry::Global().WriteText();
    std::FILE* f = std::fopen(p, "w");
    if (f == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  });
}

}  // namespace

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = [] {
    InstallMetricsFileAtExit();
    return new MetricRegistry();
  }();
  return *registry;
}

std::string MetricRegistry::MakeKey(const std::string& name,
                                    const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name + "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first + "=" + sorted[i].second;
  }
  key += '}';
  return key;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  const std::string key = MakeKey(name, labels);
  std::lock_guard<TrackedMutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it = counters_
             .emplace(key, std::make_pair(Entry{name, std::move(sorted)},
                                          std::make_unique<Counter>()))
             .first;
  }
  return it->second.second.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name, const Labels& labels) {
  const std::string key = MakeKey(name, labels);
  std::lock_guard<TrackedMutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it = gauges_
             .emplace(key, std::make_pair(Entry{name, std::move(sorted)},
                                          std::make_unique<Gauge>()))
             .first;
  }
  return it->second.second.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const Labels& labels,
                                        std::vector<double> bounds) {
  const std::string key = MakeKey(name, labels);
  std::lock_guard<TrackedMutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    it = histograms_
             .emplace(key,
                      std::make_pair(
                          Entry{name, std::move(sorted)},
                          std::make_unique<Histogram>(std::move(bounds))))
             .first;
  }
  return it->second.second.get();
}

void MetricRegistry::Reset() {
  std::lock_guard<TrackedMutex> lock(mu_);
  for (auto& [key, entry] : counters_) entry.second->Reset();
  for (auto& [key, entry] : gauges_) entry.second->Reset();
  for (auto& [key, entry] : histograms_) entry.second->Reset();
}

std::string MetricRegistry::TextDump() const {
  std::lock_guard<TrackedMutex> lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& [key, entry] : counters_) {
    std::snprintf(buf, sizeof(buf), "counter %s %lld\n", key.c_str(),
                  static_cast<long long>(entry.second->Value()));
    out += buf;
  }
  for (const auto& [key, entry] : gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge %s %g\n", key.c_str(),
                  entry.second->Value());
    out += buf;
  }
  for (const auto& [key, entry] : histograms_) {
    const Histogram& h = *entry.second;
    std::snprintf(buf, sizeof(buf),
                  "histogram %s count=%lld mean=%g p50=%g p95=%g p99=%g "
                  "max=%g\n",
                  key.c_str(), static_cast<long long>(h.Count()), h.Mean(),
                  h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99),
                  h.Max());
    out += buf;
  }
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; this repo's
/// dotted names ("mm.candidates.total") map dots and other bytes to '_'.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

/// Label-value escaping per the exposition format: backslash, double quote
/// and newline must be escaped (in that order of precedence).
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromLabels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += PromName(k) + "=\"" + EscapeLabelValue(v) + '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

/// HELP text is free-form but must escape backslash and newline.
std::string EscapeHelp(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Emits `# HELP` + `# TYPE` when `prom_name` starts a new family. The maps
/// are keyed `name{labels...}`, so all label sets of one family are
/// contiguous and one previous-name string suffices.
void FamilyHeader(const std::string& prom_name, const std::string& raw_name,
                  const char* type, std::string* prev, std::string* out) {
  if (prom_name == *prev) return;
  *prev = prom_name;
  *out += "# HELP " + prom_name + " TRMMA metric " + EscapeHelp(raw_name) +
          "\n# TYPE " + prom_name + ' ' + type + '\n';
}

}  // namespace

std::string MetricRegistry::WriteText() const {
  std::lock_guard<TrackedMutex> lock(mu_);
  std::string out;
  char buf[192];
  std::string prev;
  for (const auto& [key, entry] : counters_) {
    const std::string name = PromName(entry.first.name);
    FamilyHeader(name, entry.first.name, "counter", &prev, &out);
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(entry.second->Value()));
    out += name + PromLabels(entry.first.labels) + buf;
  }
  prev.clear();
  for (const auto& [key, entry] : gauges_) {
    const std::string name = PromName(entry.first.name);
    FamilyHeader(name, entry.first.name, "gauge", &prev, &out);
    std::snprintf(buf, sizeof(buf), " %.17g\n", entry.second->Value());
    out += name + PromLabels(entry.first.labels) + buf;
  }
  prev.clear();
  for (const auto& [key, entry] : histograms_) {
    const Histogram& h = *entry.second;
    const std::string name = PromName(entry.first.name);
    FamilyHeader(name, entry.first.name, "summary", &prev, &out);
    static constexpr double kQuantiles[] = {0.5, 0.95, 0.99};
    // OpenMetrics exemplar on the p99 line: ` # {trace_id="..."} value`
    // links the tail quantile to the worst recent request's trace.
    HistogramExemplar exemplar;
    const bool has_exemplar =
        ExemplarsEnabled() && h.WorstExemplar(&exemplar);
    for (double q : kQuantiles) {
      char qlabel[48];
      std::snprintf(qlabel, sizeof(qlabel), "quantile=\"%g\"", q);
      std::snprintf(buf, sizeof(buf), " %.17g", h.Quantile(q));
      out += name + PromLabels(entry.first.labels, qlabel) + buf;
      if (has_exemplar && q == 0.99) {
        char ex[96];
        std::snprintf(ex, sizeof(ex), " # {trace_id=\"%016llx\"} %.17g",
                      static_cast<unsigned long long>(exemplar.trace_id),
                      exemplar.value);
        out += ex;
      }
      out += '\n';
    }
    std::snprintf(buf, sizeof(buf), " %.17g\n", h.Sum());
    out += name + "_sum" + PromLabels(entry.first.labels) + buf;
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(h.Count()));
    out += name + "_count" + PromLabels(entry.first.labels) + buf;
  }
  return out;
}

bool MetricRegistry::SumCountersByName(const std::string& name,
                                       int64_t* out) const {
  std::lock_guard<TrackedMutex> lock(mu_);
  int64_t sum = 0;
  bool found = false;
  for (const auto& [key, entry] : counters_) {
    if (entry.first.name != name) continue;
    sum += entry.second->Value();
    found = true;
  }
  if (found) *out = sum;
  return found;
}

bool MetricRegistry::MaxGaugeByName(const std::string& name,
                                    double* out) const {
  std::lock_guard<TrackedMutex> lock(mu_);
  double best = 0.0;
  bool found = false;
  for (const auto& [key, entry] : gauges_) {
    if (entry.first.name != name) continue;
    const double v = entry.second->Value();
    if (!found || v > best) best = v;
    found = true;
  }
  if (found) *out = best;
  return found;
}

bool MetricRegistry::WorstExemplarByName(const std::string& name,
                                         HistogramExemplar* out) const {
  std::lock_guard<TrackedMutex> lock(mu_);
  HistogramExemplar best;
  bool found = false;
  for (const auto& [key, entry] : histograms_) {
    if (entry.first.name != name) continue;
    HistogramExemplar e;
    if (!entry.second->WorstExemplar(&e)) continue;
    if (!found || e.value > best.value) {
      best = e;
      found = true;
    }
  }
  if (found && out != nullptr) *out = best;
  return found;
}

bool MetricRegistry::HistogramStatsByName(const std::string& name,
                                          HistogramStats* out) const {
  std::lock_guard<TrackedMutex> lock(mu_);
  std::unique_ptr<Histogram> merged;
  for (const auto& [key, entry] : histograms_) {
    if (entry.first.name != name) continue;
    if (merged == nullptr) {
      merged = std::make_unique<Histogram>(entry.second->bounds());
    }
    merged->Merge(*entry.second);  // bounds mismatch -> label set skipped
  }
  if (merged == nullptr) return false;
  out->count = merged->Count();
  out->dropped = merged->DroppedCount();
  out->sum = merged->Sum();
  out->min = merged->Min();
  out->max = merged->Max();
  out->mean = merged->Mean();
  out->p50 = merged->Quantile(0.5);
  out->p95 = merged->Quantile(0.95);
  out->p99 = merged->Quantile(0.99);
  return true;
}

namespace {

void WriteLabels(JsonWriter& w, const Labels& labels) {
  w.Key("labels").BeginObject();
  for (const auto& [k, v] : labels) w.Key(k).String(v);
  w.EndObject();
}

}  // namespace

std::string MetricRegistry::JsonDump() const {
  std::lock_guard<TrackedMutex> lock(mu_);
  return JsonDumpLocked();
}

bool MetricRegistry::TryJsonDump(std::string* out) const {
  std::unique_lock<TrackedMutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  *out = JsonDumpLocked();
  return true;
}

std::string MetricRegistry::JsonDumpLocked() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginArray();
  for (const auto& [key, entry] : counters_) {
    w.BeginObject().Key("name").String(entry.first.name);
    WriteLabels(w, entry.first.labels);
    w.Key("value").Int(entry.second->Value()).EndObject();
  }
  w.EndArray();
  w.Key("gauges").BeginArray();
  for (const auto& [key, entry] : gauges_) {
    w.BeginObject().Key("name").String(entry.first.name);
    WriteLabels(w, entry.first.labels);
    w.Key("value").Number(entry.second->Value()).EndObject();
  }
  w.EndArray();
  w.Key("histograms").BeginArray();
  for (const auto& [key, entry] : histograms_) {
    const Histogram& h = *entry.second;
    w.BeginObject().Key("name").String(entry.first.name);
    WriteLabels(w, entry.first.labels);
    w.Key("count").Int(h.Count());
    w.Key("sum").Number(h.Sum());
    w.Key("min").Number(h.Min());
    w.Key("max").Number(h.Max());
    w.Key("mean").Number(h.Mean());
    w.Key("p50").Number(h.Quantile(0.5));
    w.Key("p95").Number(h.Quantile(0.95));
    w.Key("p99").Number(h.Quantile(0.99));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace obs
}  // namespace trmma
