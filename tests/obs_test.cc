#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace trmma {
namespace obs {
namespace {

/// Restores the process TraceMode on scope exit so tests can flip it freely.
class ModeGuard {
 public:
  explicit ModeGuard(TraceMode mode) : prev_(CurrentTraceMode()) {
    SetTraceMode(mode);
  }
  ~ModeGuard() { SetTraceMode(prev_); }

 private:
  TraceMode prev_;
};

// ---------------------------------------------------------------- registry

TEST(MetricRegistryTest, ReRegistrationIsIdempotent) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("requests");
  Counter* b = reg.GetCounter("requests");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3);
}

TEST(MetricRegistryTest, LabelOrderDoesNotSplitMetrics) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("hits", {{"city", "PT"}, {"kind", "knn"}});
  Counter* b = reg.GetCounter("hits", {{"kind", "knn"}, {"city", "PT"}});
  EXPECT_EQ(a, b);
  Counter* c = reg.GetCounter("hits", {{"city", "XA"}, {"kind", "knn"}});
  EXPECT_NE(a, c);
}

TEST(MetricRegistryTest, HistogramBoundsFixedByFirstRegistration) {
  MetricRegistry reg;
  Histogram* a = reg.GetHistogram("lat", {}, {1.0, 2.0, 3.0});
  Histogram* b = reg.GetHistogram("lat", {}, {10.0, 20.0});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->bounds(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(MetricRegistryTest, ResetZeroesButKeepsPointersValid) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("n");
  Gauge* g = reg.GetGauge("v");
  Histogram* h = reg.GetHistogram("t", {}, {1.0});
  c->Increment(7);
  g->Set(2.5);
  h->Observe(0.5);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0);
  EXPECT_EQ(h->Min(), 0.0);
  // Same objects are still registered.
  EXPECT_EQ(reg.GetCounter("n"), c);
  c->Increment();
  EXPECT_EQ(c->Value(), 1);
}

// --------------------------------------------------------------- histogram

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket 0: (-inf, 1]
  h.Observe(1.0);  // bucket 0 (boundary value goes to the lower bucket)
  h.Observe(1.5);  // bucket 1: (1, 2]
  h.Observe(4.0);  // bucket 2: (2, 4]
  h.Observe(9.0);  // bucket 3: overflow
  EXPECT_EQ(h.BucketCounts(), (std::vector<int64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.Count(), 5);
  EXPECT_DOUBLE_EQ(h.Sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.5);
  EXPECT_DOUBLE_EQ(h.Max(), 9.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.2);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleObservationPinsAllQuantiles) {
  Histogram h({10.0, 20.0});
  h.Observe(7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 7.0);
}

TEST(HistogramTest, QuantilesOfUniformDistribution) {
  // 1..100 against decade buckets: interpolation should land within one
  // bucket width of the exact order statistic.
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) h.Observe(v);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
}

TEST(HistogramTest, QuantileClampedToObservedRange) {
  Histogram h({1000.0});
  h.Observe(3.0);
  h.Observe(5.0);
  // Both fall in the first bucket; min/max tighten its range to [3, 5].
  EXPECT_GE(h.Quantile(0.01), 3.0);
  EXPECT_LE(h.Quantile(0.99), 5.0);
}

TEST(HistogramTest, ExponentialBoundsGrowGeometrically) {
  const std::vector<double> b = Histogram::ExponentialBounds(1.0, 2.0, 4);
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(HistogramTest, NonFiniteObservationsAreDroppedAndCounted) {
  Histogram h({1.0, 2.0});
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.DroppedCount(), 3);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  // A finite observation after the garbage still lands normally, and
  // min/max are untouched by the dropped values.
  h.Observe(1.5);
  EXPECT_EQ(h.Count(), 1);
  EXPECT_DOUBLE_EQ(h.Min(), 1.5);
  EXPECT_DOUBLE_EQ(h.Max(), 1.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1.5);
}

TEST(HistogramTest, ResetClearsEverythingIncludingDropped) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.Count(), 1);
  EXPECT_EQ(h.DroppedCount(), 1);
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.DroppedCount(), 0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  // The histogram is fully reusable after Reset.
  h.Observe(1.5);
  EXPECT_EQ(h.Count(), 1);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
}

TEST(HistogramTest, QuantileInterpolatesInsideBuckets) {
  // 10 observations in one bucket whose range is tightened to [10, 20] by
  // min/max: interior quantiles must move smoothly through the bucket
  // rather than snapping to a boundary.
  Histogram h({100.0});
  for (int v = 10; v <= 20; v += 10) h.Observe(v);  // min 10, max 20
  for (int i = 0; i < 8; ++i) h.Observe(15.0);
  const double p25 = h.Quantile(0.25);
  const double p75 = h.Quantile(0.75);
  EXPECT_GT(p25, 10.0);
  EXPECT_LT(p25, p75);
  EXPECT_LT(p75, 20.0);
}

TEST(HistogramTest, QuantileAtExactBucketBoundary) {
  // 50 observations below the first bound, 50 above: q = 0.5 lands exactly
  // on the cumulative boundary and must report a value from the first
  // bucket's range, never beyond it.
  Histogram h({50.0, 100.0});
  for (int v = 1; v <= 100; ++v) h.Observe(v);
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 50.0);
}

TEST(HistogramTest, QuantileArgumentOutsideUnitIntervalIsClamped) {
  Histogram h({10.0, 20.0});
  h.Observe(4.0);
  h.Observe(16.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
  EXPECT_DOUBLE_EQ(h.Quantile(1.5), 16.0);
}

TEST(HistogramTest, NanQuantileArgumentDoesNotReturnMax) {
  // NaN passes through std::clamp unscathed; without the explicit guard
  // every rank comparison is false and Quantile would fall through to max.
  Histogram h({10.0, 20.0});
  h.Observe(4.0);
  h.Observe(16.0);
  const double q = h.Quantile(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(std::isnan(q));
  EXPECT_DOUBLE_EQ(q, 4.0);
}

TEST(HistogramTest, QuantileInOverflowBucketUsesObservedMax) {
  // All mass above the last bound: the overflow bucket has no upper bound,
  // so interpolation must be capped by the observed max.
  Histogram h({1.0});
  h.Observe(100.0);
  h.Observe(200.0);
  EXPECT_GE(h.Quantile(0.5), 100.0);
  EXPECT_LE(h.Quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 200.0);
}

TEST(HistogramTest, QuantileSeesConsistentMinMaxSnapshot) {
  // Quantile snapshots min/max once; if a concurrent Reset leaves the
  // sentinels (min=+inf > max=-inf), it must return 0 rather than a
  // half-reset garbage interpolation. Exercised here single-threaded by
  // interleaving Observe/Reset around Quantile.
  Histogram h({10.0, 20.0});
  h.Observe(5.0);
  h.Reset();
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Observe(7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 7.0);
}

// ------------------------------------------------------------------ merge

TEST(HistogramMergeTest, CombinesCountsSumsAndExtremes) {
  Histogram a({1.0, 2.0, 4.0});
  Histogram b({1.0, 2.0, 4.0});
  a.Observe(0.5);
  a.Observe(3.0);
  b.Observe(1.5);
  b.Observe(9.0);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.Count(), 4);
  EXPECT_DOUBLE_EQ(a.Sum(), 14.0);
  EXPECT_DOUBLE_EQ(a.Min(), 0.5);
  EXPECT_DOUBLE_EQ(a.Max(), 9.0);
  EXPECT_EQ(a.BucketCounts(), (std::vector<int64_t>{1, 1, 1, 1}));
  // `b` is untouched by the merge.
  EXPECT_EQ(b.Count(), 2);
}

TEST(HistogramMergeTest, MismatchedBoundsRejectedAndTargetUntouched) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  a.Observe(0.5);
  b.Observe(0.5);
  EXPECT_FALSE(a.Merge(b));
  EXPECT_EQ(a.Count(), 1);
  EXPECT_DOUBLE_EQ(a.Sum(), 0.5);
}

TEST(HistogramMergeTest, EmptySourceIsANoOp) {
  Histogram a({1.0, 2.0});
  Histogram empty({1.0, 2.0});
  a.Observe(1.5);
  ASSERT_TRUE(a.Merge(empty));
  EXPECT_EQ(a.Count(), 1);
  // The empty histogram's min/max sentinels must not widen a's range.
  EXPECT_DOUBLE_EQ(a.Min(), 1.5);
  EXPECT_DOUBLE_EQ(a.Max(), 1.5);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 1.5);
}

TEST(HistogramMergeTest, MergeIntoEmptyAdoptsSourceState) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  b.Observe(0.5);
  b.Observe(1.5);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.Count(), 2);
  EXPECT_DOUBLE_EQ(a.Min(), 0.5);
  EXPECT_DOUBLE_EQ(a.Max(), 1.5);
}

TEST(HistogramMergeTest, DroppedCountPropagates) {
  Histogram a({1.0});
  Histogram b({1.0});
  b.Observe(std::numeric_limits<double>::quiet_NaN());
  b.Observe(std::numeric_limits<double>::infinity());
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.Count(), 0);
  EXPECT_EQ(a.DroppedCount(), 2);
}

TEST(HistogramMergeTest, NonFiniteSourceSumDoesNotPoisonTarget) {
  // Two finite observations can still overflow the running sum to +inf;
  // merging such a histogram must keep the counts but skip the sum.
  Histogram a({1.0});
  Histogram b({1.0});
  a.Observe(1.0);
  b.Observe(1.7e308);
  b.Observe(1.7e308);
  ASSERT_FALSE(std::isfinite(b.Sum()));
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.Count(), 3);
  EXPECT_TRUE(std::isfinite(a.Sum()));
  EXPECT_DOUBLE_EQ(a.Sum(), 1.0);
}

TEST(HistogramMergeTest, SelfMergeDoublesCleanly) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  ASSERT_TRUE(h.Merge(h));
  EXPECT_EQ(h.Count(), 4);
  EXPECT_EQ(h.BucketCounts(), (std::vector<int64_t>{2, 2, 0}));
  EXPECT_DOUBLE_EQ(h.Sum(), 4.0);
}

// ------------------------------------------------------------- exemplars

/// Forces exemplar capture on for the test body, restoring the previous
/// switch on scope exit.
class ExemplarGuard {
 public:
  ExemplarGuard() : prev_(ExemplarsEnabled()) { SetExemplarsEnabled(true); }
  ~ExemplarGuard() { SetExemplarsEnabled(prev_); }

 private:
  bool prev_;
};

TEST(HistogramExemplarTest, ObserveWithTraceIdCapturesExemplar) {
  ExemplarGuard guard;
  Histogram h;
  HistogramExemplar ex;
  EXPECT_FALSE(h.WorstExemplar(&ex)) << "no capture before any observation";
  h.Observe(5.0, 0xabcu);
  ASSERT_TRUE(h.WorstExemplar(&ex));
  EXPECT_DOUBLE_EQ(ex.value, 5.0);
  EXPECT_EQ(ex.trace_id, 0xabcu);
}

TEST(HistogramExemplarTest, WorstExemplarPicksLargestRecentValue) {
  ExemplarGuard guard;
  Histogram h;
  h.Observe(1.0, 1);
  h.Observe(9.0, 2);
  h.Observe(3.0, 3);
  HistogramExemplar ex;
  ASSERT_TRUE(h.WorstExemplar(&ex));
  EXPECT_DOUBLE_EQ(ex.value, 9.0);
  EXPECT_EQ(ex.trace_id, 2u);
  // The ring holds the 4 most recent exemplars: once the 9.0 capture
  // rotates out, "worst" tracks the new window, not the all-time max.
  for (uint64_t i = 0; i < 4; ++i) h.Observe(2.0, 100 + i);
  ASSERT_TRUE(h.WorstExemplar(&ex));
  EXPECT_DOUBLE_EQ(ex.value, 2.0);
}

TEST(HistogramExemplarTest, ZeroTraceIdLeavesNoExemplar) {
  ExemplarGuard guard;
  Histogram h;
  h.Observe(7.0, /*exemplar_trace_id=*/0);
  h.Observe(8.0);
  HistogramExemplar ex;
  EXPECT_FALSE(h.WorstExemplar(&ex));
  EXPECT_EQ(h.Count(), 2) << "observations still land without a trace";
}

TEST(HistogramExemplarTest, ResetDropsRetainedExemplars) {
  ExemplarGuard guard;
  Histogram h;
  h.Observe(5.0, 7);
  h.Reset();
  HistogramExemplar ex;
  EXPECT_FALSE(h.WorstExemplar(&ex)) << "pre-reset trace ids must not leak";
  h.Observe(6.0, 8);
  ASSERT_TRUE(h.WorstExemplar(&ex));
  EXPECT_EQ(ex.trace_id, 8u);
}

TEST(HistogramExemplarTest, DisabledSwitchSkipsCaptureNotObservation) {
  ExemplarGuard guard;
  SetExemplarsEnabled(false);
  Histogram h;
  h.Observe(5.0, 42);
  HistogramExemplar ex;
  EXPECT_FALSE(h.WorstExemplar(&ex));
  EXPECT_EQ(h.Count(), 1);
}

TEST(MetricRegistryTest, WorstExemplarByNameSpansLabelSets) {
  ExemplarGuard guard;
  MetricRegistry reg;
  reg.GetHistogram("lat.us", {{"city", "PT"}})->Observe(5.0, 1);
  reg.GetHistogram("lat.us", {{"city", "XA"}})->Observe(9.0, 2);
  HistogramExemplar ex;
  ASSERT_TRUE(reg.WorstExemplarByName("lat.us", &ex));
  EXPECT_EQ(ex.trace_id, 2u);
  EXPECT_DOUBLE_EQ(ex.value, 9.0);
  EXPECT_FALSE(reg.WorstExemplarByName("no.such.metric", &ex));
}

TEST(JsonExporterTest, WriteTextAttachesExemplarToP99LineOnly) {
  ExemplarGuard guard;
  MetricRegistry reg;
  reg.GetHistogram("lat.us", {}, {1.0})->Observe(0.5, 0x2a);
  const std::string text = reg.WriteText();
  // Exactly one OpenMetrics exemplar, and it rides the p99 sample.
  const std::string suffix = " # {trace_id=\"000000000000002a\"} 0.5";
  EXPECT_NE(text.find("lat_us{quantile=\"0.99\"} 0.5" + suffix),
            std::string::npos);
  EXPECT_EQ(text.find(" # {"), text.rfind(" # {"));
  EXPECT_EQ(text.find("quantile=\"0.5\"} 0.5" + suffix), std::string::npos);
}

TEST(JsonExporterTest, WriteTextOmitsExemplarWhenDisabled) {
  ExemplarGuard guard;
  MetricRegistry reg;
  reg.GetHistogram("lat.us", {}, {1.0})->Observe(0.5, 0x2a);  // captured
  SetExemplarsEnabled(false);  // emission gated independently of capture
  const std::string text = reg.WriteText();
  EXPECT_EQ(text.find(" # {"), std::string::npos);
  EXPECT_NE(text.find("lat_us{quantile=\"0.99\"} 0.5"), std::string::npos);
}

// ----------------------------------------------------- exposition hygiene

TEST(JsonExporterTest, WriteTextEscapesLabelValues) {
  MetricRegistry reg;
  reg.GetCounter("esc", {{"path", "a\\b\"c\nd"}})->Increment(1);
  const std::string text = reg.WriteText();
  // Exposition 0.0.4: backslash, double quote and newline must be escaped
  // inside label values — a raw newline would split the sample line.
  EXPECT_NE(text.find("esc{path=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos);
  // The raw newline must never reach the output.
  EXPECT_EQ(text.find("c\nd"), std::string::npos);
}

TEST(JsonExporterTest, WriteTextEmitsFamilyHeadersOncePerFamily) {
  MetricRegistry reg;
  reg.GetCounter("hits", {{"city", "PT"}})->Increment(1);
  reg.GetCounter("hits", {{"city", "XA"}})->Increment(2);
  reg.GetHistogram("lat.us", {{"city", "PT"}}, {1.0})->Observe(0.5);
  reg.GetHistogram("lat.us", {{"city", "XA"}}, {1.0})->Observe(0.5);
  const std::string text = reg.WriteText();
  auto count_of = [&text](const std::string& needle) {
    int n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  // One HELP + one TYPE per family even with several label sets.
  EXPECT_EQ(count_of("# TYPE hits counter"), 1);
  EXPECT_EQ(count_of("# HELP hits "), 1);
  EXPECT_EQ(count_of("# TYPE lat_us summary"), 1);
  EXPECT_EQ(count_of("# HELP lat_us "), 1);
  // Both label sets still export their samples.
  EXPECT_EQ(count_of("hits{city=\"PT\"} 1"), 1);
  EXPECT_EQ(count_of("hits{city=\"XA\"} 2"), 1);
  EXPECT_EQ(count_of("lat_us_count{city=\"PT\"} 1"), 1);
  EXPECT_EQ(count_of("lat_us_count{city=\"XA\"} 1"), 1);
  // No header is ever emitted mid-family: every TYPE line directly follows
  // its HELP line.
  size_t type_pos = text.find("# TYPE hits counter");
  size_t help_pos = text.find("# HELP hits ");
  ASSERT_NE(type_pos, std::string::npos);
  ASSERT_NE(help_pos, std::string::npos);
  EXPECT_LT(help_pos, type_pos);
}

// ------------------------------------------------------------------ spans

TEST(TraceTest, SpanNestingRecordedInRing) {
  ModeGuard guard(TraceMode::kTrace);
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  {
    TRMMA_SPAN("obs_test.outer");
    {
      TRMMA_SPAN("obs_test.inner");
    }
  }
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: inner finishes first.
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_STREQ(inner.name, "obs_test.inner");
  EXPECT_STREQ(outer.name, "obs_test.outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.parent_seq, -1);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.parent_seq, outer.seq);
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.duration_us, outer.duration_us);

  // DumpString re-sorts by start order: outer line precedes inner line.
  const std::string dump = ring.DumpString();
  const size_t outer_pos = dump.find("obs_test.outer");
  const size_t inner_pos = dump.find("obs_test.inner");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  ring.Clear();
}

TEST(TraceTest, RingKeepsOnlyMostRecentSpans) {
  ModeGuard guard(TraceMode::kTrace);
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    SpanRecord rec;
    rec.name = "r";
    rec.seq = i;
    ring.Record(rec);
  }
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().seq, 6);
  EXPECT_EQ(spans.back().seq, 9);
}

TEST(TraceTest, SpanFeedsHistogramUnderMetricsMode) {
  ModeGuard guard(TraceMode::kMetrics);
  Histogram* h = MetricRegistry::Global().GetHistogram("obs_test.span.us");
  const int64_t before = h->Count();
  {
    TRMMA_SPAN("obs_test.span");
  }
  EXPECT_EQ(h->Count(), before + 1);
}

TEST(TraceTest, SpanIsInertWhenOff) {
  ModeGuard guard(TraceMode::kOff);
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  Histogram* h = MetricRegistry::Global().GetHistogram("obs_test.off.us");
  const int64_t before = h->Count();
  {
    TRMMA_SPAN("obs_test.off");
  }
  EXPECT_EQ(h->Count(), before);
  EXPECT_TRUE(ring.Snapshot().empty());
}

// ------------------------------------------------------------------- JSON

TEST(JsonWriterTest, EscapesAndNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\nd");
  w.Key("arr").BeginArray().Int(1).Int(2).EndArray();
  w.Key("nan").Number(std::nan(""));
  w.Key("t").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,2],\"nan\":0,\"t\":true}");
}

TEST(JsonExporterTest, GoldenRegistryDump) {
  MetricRegistry reg;
  reg.GetCounter("c", {{"city", "PT"}})->Increment(3);
  reg.GetGauge("g")->Set(2.5);
  Histogram* h = reg.GetHistogram("h", {}, {1.0, 2.0});
  h->Observe(1.5);
  const std::string expected =
      "{\"counters\":[{\"name\":\"c\",\"labels\":{\"city\":\"PT\"},"
      "\"value\":3}],"
      "\"gauges\":[{\"name\":\"g\",\"labels\":{},\"value\":2.5}],"
      "\"histograms\":[{\"name\":\"h\",\"labels\":{},\"count\":1,"
      "\"sum\":1.5,\"min\":1.5,\"max\":1.5,\"mean\":1.5,"
      "\"p50\":1.5,\"p95\":1.5,\"p99\":1.5}]}";
  EXPECT_EQ(reg.JsonDump(), expected);
}

TEST(JsonExporterTest, TextDumpListsEveryMetric) {
  MetricRegistry reg;
  reg.GetCounter("reqs", {{"m", "hmm"}})->Increment(5);
  reg.GetGauge("loss")->Set(0.25);
  reg.GetHistogram("lat.us", {}, {1.0})->Observe(0.5);
  const std::string text = reg.TextDump();
  EXPECT_NE(text.find("counter reqs{m=hmm} 5"), std::string::npos);
  EXPECT_NE(text.find("gauge loss 0.25"), std::string::npos);
  EXPECT_NE(text.find("histogram lat.us count=1"), std::string::npos);
}

TEST(JsonExporterTest, WriteTextEmitsPrometheusExposition) {
  MetricRegistry reg;
  reg.GetCounter("mm.candidates", {{"city", "PT"}})->Increment(7);
  reg.GetGauge("train.loss")->Set(0.5);
  Histogram* h = reg.GetHistogram("span.us", {}, {1.0, 10.0});
  h->Observe(2.0);
  h->Observe(4.0);
  const std::string text = reg.WriteText();
  // Dots are sanitized to underscores; every family gets a TYPE header.
  EXPECT_NE(text.find("# TYPE mm_candidates counter"), std::string::npos);
  EXPECT_NE(text.find("mm_candidates{city=\"PT\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE train_loss gauge"), std::string::npos);
  EXPECT_NE(text.find("train_loss 0.5"), std::string::npos);
  // Histograms export as summaries: quantile series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE span_us summary"), std::string::npos);
  EXPECT_NE(text.find("span_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("span_us{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(text.find("span_us{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("span_us_sum 6"), std::string::npos);
  EXPECT_NE(text.find("span_us_count 2"), std::string::npos);
  // Exposition format requires a trailing newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(JsonExporterTest, WriteTextMergesQuantileLabelsWithExisting) {
  MetricRegistry reg;
  reg.GetHistogram("lat.us", {{"city", "XA"}}, {1.0})->Observe(0.5);
  const std::string text = reg.WriteText();
  EXPECT_NE(text.find("lat_us{city=\"XA\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lat_us_count{city=\"XA\"} 1"), std::string::npos);
}

// ----------------------------------------------------------------- report

TEST(RunReportTest, WriteFileEmitsNamedJson) {
  RunReport report;
  report.SetName("obs_unit");
  report.AddPhaseSeconds("train", 1.5);
  report.AddPhaseSeconds("train", 0.5);
  report.SetFingerprint("scale", "quick");
  report.SetFingerprintNumber("seed", 42);

  auto path_or = report.WriteFile(::testing::TempDir());
  ASSERT_TRUE(path_or.ok()) << path_or.status().ToString();
  const std::string path = path_or.value();
  EXPECT_NE(path.find("BENCH_obs_unit.json"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"name\":\"obs_unit\""), std::string::npos);
  EXPECT_NE(body.find("\"scale\":\"quick\""), std::string::npos);
  EXPECT_NE(body.find("\"seed\":42"), std::string::npos);
  // Two AddPhaseSeconds calls accumulate into one phase entry.
  EXPECT_NE(body.find("\"name\":\"train\",\"seconds\":2"), std::string::npos);
  EXPECT_NE(body.find("\"count\":2"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\":{"), std::string::npos);
  // Structural sanity: braces and brackets balance (outside strings there
  // are no escapes to worry about; keys/values here contain none).
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '"' && (i == 0 || body[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

TEST(RunReportTest, ScopedPhaseAccumulatesIntoGlobalReport) {
  RunReport& report = RunReport::Global();
  report.Reset();
  {
    ScopedPhase phase("obs_test.phase");
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1;
  }
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"name\":\"obs_test.phase\""), std::string::npos);
  report.Reset();
}

// ---------------------------------------------------------------- logging

TEST(LoggingTest, SetMinLogLevelFromEnvParsesLevels) {
  const LogLevel original = internal_logging::MinLogLevel();
  ::setenv("TRMMA_LOG_LEVEL", "error", 1);
  SetMinLogLevelFromEnv();
  EXPECT_EQ(internal_logging::MinLogLevel(), LogLevel::kError);
  ::setenv("TRMMA_LOG_LEVEL", "DEBUG", 1);
  SetMinLogLevelFromEnv();
  EXPECT_EQ(internal_logging::MinLogLevel(), LogLevel::kDebug);
  ::setenv("TRMMA_LOG_LEVEL", "not-a-level", 1);
  SetMinLogLevelFromEnv();
  EXPECT_EQ(internal_logging::MinLogLevel(), LogLevel::kDebug);
  ::unsetenv("TRMMA_LOG_LEVEL");
  SetMinLogLevel(original);
}

TEST(LoggingTest, SetLogFileDivertsAndRestores) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/trmma_log_file_test.log";
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path));
  TRMMA_LOG(Warning) << "diverted-line-marker";
  ASSERT_TRUE(SetLogFile(""));  // back to stderr, flushes/closes the file
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("diverted-line-marker"), std::string::npos);
  // Appends across re-opens (mirrors TRMMA_METRICS_FILE semantics).
  ASSERT_TRUE(SetLogFile(path));
  TRMMA_LOG(Warning) << "second-marker";
  ASSERT_TRUE(SetLogFile(""));
  std::ifstream in2(path);
  std::string contents2((std::istreambuf_iterator<char>(in2)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(contents2.find("diverted-line-marker"), std::string::npos);
  EXPECT_NE(contents2.find("second-marker"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LoggingTest, SetLogFileFailureFallsBackToStderr) {
  EXPECT_FALSE(SetLogFile("/nonexistent-dir-for-trmma/log.txt"));
  // Logging still works (to stderr) after the failed open.
  TRMMA_LOG(Error) << "still-alive-after-failed-open";
  SetLogFile("");
}

TEST(LoggingTest, SetLogFileFromEnvAppliesVariable) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/trmma_log_env_test.log";
  std::remove(path.c_str());
  ::setenv("TRMMA_LOG_FILE", path.c_str(), 1);
  SetLogFileFromEnv();
  TRMMA_LOG(Warning) << "env-marker";
  ::unsetenv("TRMMA_LOG_FILE");
  SetLogFile("");
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("env-marker"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace trmma
