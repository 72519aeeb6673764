#include "core/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "algos/ects.h"
#include "core/counters.h"
#include "core/evaluation.h"
#include "core/json.h"
#include "core/log.h"
#include "core/parallel.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Enables tracing on a clean buffer for one test and restores the disabled
/// default (plus another Clear) on scope exit.
class ScopedTracing {
 public:
  explicit ScopedTracing(bool enabled) {
    trace::Clear();
    trace::SetEnabled(enabled);
  }
  ~ScopedTracing() {
    trace::SetEnabled(false);
    trace::Clear();
  }
};

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

TEST(Trace, DisabledRecordsNothingAndSkipsNameFormatting) {
  ScopedTracing scoped(false);
  bool name_formatted = false;
  {
    TraceSpan named("test", "static_name");
    TraceSpan dynamic("test", [&] {
      name_formatted = true;
      return std::string("dynamic_name");
    });
  }
  EXPECT_EQ(trace::EventCount(), 0u);
  // The overhead contract: dynamic span names cost nothing when tracing is
  // off — the callable must never run.
  EXPECT_FALSE(name_formatted);
}

TEST(Trace, EnabledRecordsSpansWithMonotonicBounds) {
  ScopedTracing scoped(true);
  {
    TraceSpan outer("test", "outer");
    TraceSpan inner("test", [] { return std::string("inner"); });
  }
  EXPECT_EQ(trace::EventCount(), 2u);
}

TEST(Trace, ToChromeJsonIsValidTraceEventFormat) {
  ScopedTracing scoped(true);
  { TraceSpan span("cat_a", "span_one"); }
  { TraceSpan span("cat_b", "span_two"); }

  const auto parsed = json::Parse(trace::ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  std::set<std::string> names;
  for (const json::Value& event : events->array) {
    ASSERT_TRUE(event.is_object());
    // Complete events carry name/cat/ph/ts/dur/pid/tid.
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("cat"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    ASSERT_NE(event.Find("ts"), nullptr);
    ASSERT_NE(event.Find("dur"), nullptr);
    EXPECT_GE(event.Find("dur")->AsNumber(), 0.0);
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    names.insert(event.Find("name")->AsString());
  }
  EXPECT_TRUE(names.count("span_one"));
  EXPECT_TRUE(names.count("span_two"));
}

TEST(Trace, WriteChromeTraceRoundTripsThroughAFile) {
  ScopedTracing scoped(true);
  { TraceSpan span("test", "file_span"); }
  const std::string path = ::testing::TempDir() + "etsc_trace_test.json";
  ASSERT_TRUE(trace::WriteChromeTrace(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->Find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

TEST(Trace, SpansFromPoolThreadsAreCollected) {
  ScopedTracing scoped(true);
  SetMaxParallelism(4);
  ParallelFor(16, [](size_t) { TraceSpan span("test", "loop_body"); });
  SetMaxParallelism(0);
  // 16 loop_body spans plus the pool's own pool_task spans; the exact worker
  // count is scheduling-dependent, the lower bound is not.
  EXPECT_GE(trace::EventCount(), 16u);
}

// ---------------------------------------------------------------------------
// Evaluation spans end-to-end
// ---------------------------------------------------------------------------

TEST(Trace, CrossValidateEmitsFoldFitAndPredictSpans) {
  ScopedTracing scoped(true);
  const Dataset data = testing::MakeToyDataset(10, 16);
  auto ects = testing::CreateComposed("ects");
  EvaluationOptions options;
  options.num_folds = 2;
  const EvaluationResult result = CrossValidate(data, *ects, options);
  ASSERT_TRUE(result.trained());

  const auto parsed = json::Parse(trace::ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::set<std::string> names;
  for (const json::Value& event : parsed->Find("traceEvents")->array) {
    names.insert(event.Find("name")->AsString());
  }
  EXPECT_TRUE(names.count("fold:ECTS"));
  EXPECT_TRUE(names.count("Fit:ECTS"));
  EXPECT_TRUE(names.count("PredictEarly"));
}

TEST(Trace, TracingOnDoesNotPerturbDeterminism) {
  // The observability layer records wall-clock only; serial and parallel
  // CrossValidate must stay bit-identical with tracing enabled (DESIGN.md
  // sections 8 and 9).
  ScopedTracing scoped(true);
  const Dataset data = testing::MakeToyDataset(12, 20);
  auto ects = testing::CreateComposed("ects");
  EvaluationOptions options;
  options.num_folds = 3;

  SetMaxParallelism(1);
  const EvaluationResult serial = CrossValidate(data, *ects, options);
  SetMaxParallelism(8);
  const EvaluationResult parallel = CrossValidate(data, *ects, options);
  SetMaxParallelism(0);

  ASSERT_EQ(serial.folds.size(), parallel.folds.size());
  for (size_t f = 0; f < serial.folds.size(); ++f) {
    EXPECT_EQ(serial.folds[f].scores.accuracy, parallel.folds[f].scores.accuracy);
    EXPECT_EQ(serial.folds[f].scores.f1, parallel.folds[f].scores.f1);
    EXPECT_EQ(serial.folds[f].scores.earliness,
              parallel.folds[f].scores.earliness);
    EXPECT_EQ(serial.folds[f].scores.harmonic_mean,
              parallel.folds[f].scores.harmonic_mean);
  }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

TEST(Counters, CounterGaugeHistogramBasics) {
  Counter counter;
  counter.Add();
  counter.Add(4);
  EXPECT_EQ(counter.value(), 5u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);

  Gauge gauge;
  gauge.Add(3);
  gauge.Add(2);
  gauge.Add(-4);
  EXPECT_EQ(gauge.value(), 1);
  EXPECT_EQ(gauge.max_value(), 5);

  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_TRUE(std::isnan(hist.mean()));
  hist.Record(0.5);
  hist.Record(1.5);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.sum(), 2.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 1.5);
  EXPECT_DOUBLE_EQ(hist.mean(), 1.0);
}

TEST(Counters, HistogramBucketsCoverUnderflowAndOverflow) {
  Histogram hist;
  hist.Record(-1.0);   // negative -> underflow (a broken clock, not a duration)
  hist.Record(1e12);   // beyond the largest decade -> overflow
  hist.Record(0.5);    // inside a decade bucket
  // Zero and sub-nanosecond values are real coarse-clock measurements
  // ("faster than one tick"): they land in the fastest bucket, not underflow.
  hist.Record(0.0);
  hist.Record(1e-12);
  EXPECT_EQ(hist.bucket(Histogram::kUnderflow), 1u);
  EXPECT_EQ(hist.bucket(Histogram::kOverflow), 1u);
  EXPECT_EQ(hist.bucket(0), 2u);  // the zero-based [0, 1e-8) bucket
  uint64_t in_range = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) in_range += hist.bucket(b);
  EXPECT_EQ(in_range, 3u);
}

TEST(Counters, HistogramQuantilesTrackTheRecordedDistribution) {
  Histogram hist;
  EXPECT_TRUE(std::isnan(hist.Quantile(0.5)));
  // 100 values in the [1e-4, 1e-3) decade, one outlier two decades up.
  for (int i = 0; i < 100; ++i) hist.Record(5e-4);
  hist.Record(5e-2);
  const double p50 = hist.Quantile(0.5);
  EXPECT_GE(p50, 1e-4);
  EXPECT_LT(p50, 1e-3);
  // p99 of 101 samples is still rank 100 -> inside the dominant decade.
  EXPECT_LT(hist.Quantile(0.99), 1e-3);
  // The extremes clamp to the exact observed min/max.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 5e-4);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 5e-2);
}

TEST(Counters, HistogramQuantileOfAllZeroDurationsIsZero) {
  // A coarse clock can report 0 for every fast operation; the quantiles must
  // then report (near-)zero latency, not NaN and not an underflow artefact.
  Histogram hist;
  for (int i = 0; i < 10; ++i) hist.Record(0.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.99), 0.0);
}

TEST(Counters, RegistryInternsByNameAndSnapshotsAsJson) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter& a = registry.counter("test.interned_counter");
  Counter& b = registry.counter("test.interned_counter");
  EXPECT_EQ(&a, &b);  // stable reference: call sites may cache it

  a.Add(7);
  registry.gauge("test.snapshot_gauge").Set(-3);
  registry.histogram("test.snapshot_histogram").Record(0.25);

  const auto parsed = json::Parse(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* counter = counters->Find("test.interned_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->AsNumber(), 7.0);
  const json::Value* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("test.snapshot_gauge"), nullptr);
  const json::Value* hists = parsed->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* hist = hists->Find("test.snapshot_histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->Find("count")->AsNumber(), 1.0);
}

TEST(Counters, DisablingMetricsStopsHotPathRecording) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter& executed = registry.counter("pool.tasks_executed");
  SetMetricsEnabled(false);
  const uint64_t before = executed.value();
  SetMaxParallelism(4);
  ParallelFor(64, [](size_t) {});
  SetMaxParallelism(0);
  EXPECT_EQ(executed.value(), before);
  SetMetricsEnabled(true);
}

TEST(Counters, InstrumentedEvaluationFeedsTheRegistry) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter& folds = registry.counter("eval.folds_run");
  Counter& predictions = registry.counter("eval.predictions");
  const uint64_t folds_before = folds.value();
  const uint64_t predictions_before = predictions.value();

  const Dataset data = testing::MakeToyDataset(10, 16);
  auto ects = testing::CreateComposed("ects");
  EvaluationOptions options;
  options.num_folds = 2;
  const EvaluationResult result = CrossValidate(data, *ects, options);
  ASSERT_TRUE(result.trained());

  EXPECT_EQ(folds.value(), folds_before + 2);
  EXPECT_GT(predictions.value(), predictions_before);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(Log, ParseLogLevelRecognisesNamesAndFallsBack) {
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info", LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("verbose", LogLevel::kWarn), LogLevel::kWarn);
}

TEST(Log, MinLevelGatesEmission) {
  const LogLevel restore = MinLogLevel();
  SetMinLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetMinLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
  SetMinLogLevel(restore);
}

// ---------------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------------

TEST(Json, WriterProducesParseableDocumentsWithEscapes) {
  json::Writer w;
  w.BeginObject();
  w.Field("text", std::string("line1\nline2, \"quoted\" \\slash"));
  w.Field("finite", 0.1);
  w.Key("not_finite").Number(std::nan(""));
  w.Key("list").BeginArray().Number(1).Number(2).EndArray();
  w.EndObject();

  const auto parsed = json::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("text")->AsString(),
            "line1\nline2, \"quoted\" \\slash");
  EXPECT_DOUBLE_EQ(parsed->Find("finite")->AsNumber(), 0.1);
  EXPECT_TRUE(std::isnan(parsed->Find("not_finite")->AsNumber()));
  EXPECT_EQ(parsed->Find("list")->array.size(), 2u);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json::Parse("[1,2] trailing").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
}

}  // namespace
}  // namespace etsc
