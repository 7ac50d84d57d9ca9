// Telemetry-layer tests: histogram quantile/merge edge cases, interned
// gauge handles, the trace ring buffer and Chrome export, sampler series
// alignment (including across StatSet::Reset and idle-skipping), the
// telemetry file helpers, the ordered JSON model, and run-report schema
// validation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/hammer.h"
#include "attack/planner.h"
#include "common/stats.h"
#include "common/telemetry/json.h"
#include "common/telemetry/report.h"
#include "common/telemetry/sampler.h"
#include "common/telemetry/trace.h"
#include "sim/scenario.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace ht {
namespace {

// --- Histogram edge cases ----------------------------------------------------

TEST(HistogramEdge, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

TEST(HistogramEdge, SingleValueQuantilesCollapse) {
  Histogram h;
  h.Record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  // Every quantile of a one-sample distribution is that sample.
  EXPECT_EQ(h.Quantile(0.0), 37u);
  EXPECT_EQ(h.Quantile(0.5), 37u);
  EXPECT_EQ(h.Quantile(1.0), 37u);
}

TEST(HistogramEdge, EndpointQuantilesClampToObservedExtremes) {
  Histogram h;
  for (uint64_t v : {4u, 5u, 6u, 7u, 100u}) {
    h.Record(v);
  }
  // q outside [0,1] clamps rather than reading out of range.
  EXPECT_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_EQ(h.Quantile(1.5), h.Quantile(1.0));
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(HistogramEdge, MergeAfterResetEqualsOther) {
  Histogram a;
  a.Record(10);
  a.Record(1000);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);

  Histogram b;
  b.Record(8);
  b.Record(9);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 17u);
  // A reset histogram's sentinel min must not leak through the merge.
  EXPECT_EQ(a.min(), 8u);
  EXPECT_EQ(a.max(), 9u);
  EXPECT_EQ(a.Quantile(0.5), b.Quantile(0.5));
}

TEST(HistogramEdge, MergeEmptyIsIdentity) {
  Histogram a;
  a.Record(42);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
}

// --- Gauge handles -----------------------------------------------------------

TEST(GaugeHandle, InternedHandleSurvivesReset) {
  StatSet stats;
  Gauge* g = stats.gauge("defense.quarantine_free");
  g->Set(12.5);
  EXPECT_EQ(stats.GetGauge("defense.quarantine_free"), 12.5);
  stats.Reset();
  // Reset zeroes in place; the handle still points at the live entry.
  EXPECT_EQ(g->value(), 0.0);
  g->Set(3.0);
  EXPECT_EQ(stats.GetGauge("defense.quarantine_free"), 3.0);
}

// --- Trace ring buffer -------------------------------------------------------

TEST(TraceBuffer, RingWrapKeepsNewestAndCountsDrops) {
  TraceBuffer buffer("t", 4);
  for (uint64_t i = 0; i < 6; ++i) {
    buffer.Emit(i, TraceKind::kAct, 0, 0, 0, static_cast<uint32_t>(i), 0);
  }
  EXPECT_EQ(buffer.events_emitted(), 6u);
  EXPECT_EQ(buffer.events_dropped(), 2u);
  EXPECT_EQ(buffer.size(), 4u);
  const std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (cycles 0,1) were overwritten; order stays chronological.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].cycle, i + 2);
  }
}

TEST(TraceSink, ChromeExportValidatesAndNamesTracks) {
  TraceSink sink(16);
  TraceBuffer* b = sink.CreateBuffer("scenario0");
  b->Emit(5, TraceKind::kAct, 0, 0, 2, 123, 0);
  b->Emit(9, TraceKind::kRef, 1, 1, 0, 0, 0);
  b->Emit(11, TraceKind::kDefenseTrigger, 0, 0, 0, 0, 0xdead);
  std::ostringstream out;
  sink.WriteChromeTrace(out);

  std::string error;
  auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(ValidateChromeTrace(*doc, {"ACT", "REF", "DEFENSE"}, &error)) << error;
  // A name absent from the stream must fail the required-names check.
  EXPECT_FALSE(ValidateChromeTrace(*doc, {"FLIP"}, &error));
}

// --- Telemetry files ---------------------------------------------------------

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(TelemetryFile, WritesDumpAndRejectsMissingOrMalformedFiles) {
  const std::string dir = TempDirFor("telemetry_file");
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::Str("hammertime.test.v1"));
  doc.Set("count", JsonValue::Uint(42));
  doc.Set("delta", JsonValue::Int(-7));
  doc.Set("ratio", JsonValue::Double(0.125));
  doc.Set("stamps", JsonValue::Array().Push(JsonValue::Uint(1)).Push(JsonValue::Uint(2)));

  // The written bytes are Dump(2) plus a newline, and read back as the
  // same tree.
  std::string error;
  ASSERT_TRUE(WriteTelemetryDocument(dir + "/doc.json", doc, &error)) << error;
  EXPECT_EQ(FileBytes(dir + "/doc.json"), doc.ToString(2) + "\n");
  const std::optional<JsonValue> read = ReadTelemetryDocument(dir + "/doc.json", &error);
  ASSERT_TRUE(read.has_value()) << error;
  EXPECT_TRUE(*read == doc);

  EXPECT_FALSE(ReadTelemetryDocument(dir + "/absent.json", &error).has_value());
  EXPECT_NE(error.find("absent.json"), std::string::npos) << error;

  std::ofstream(dir + "/malformed.json") << "{\"count\": 42,";
  EXPECT_FALSE(ReadTelemetryDocument(dir + "/malformed.json", &error).has_value());
  EXPECT_NE(error.find("malformed.json: "), std::string::npos) << error;

  EXPECT_FALSE(WriteTelemetryDocument(dir + "/no_such_dir/doc.json", doc, &error));
  EXPECT_NE(error.find("cannot open "), std::string::npos) << error;
}

// A file from the retired binary container: magic "HTB1", payload kind 1
// (a JSON document), then {"schema":"hammertime.test.v1","count":42} as
// interned strings and varints. It fails like any other non-JSON input.
TEST(TelemetryFile, RefusesOldBinaryContainer) {
  using namespace std::string_literals;
  const std::string path = TempDirFor("telemetry_old_file") + "/old.htb";
  std::ofstream(path, std::ios::binary) << "HTB1\x01\x03\x06"
                                           "schema\x12"
                                           "hammertime.test.v1\x05"
                                           "count\x09\x02\x00\x06\x01\x02\x04\x2a"s;
  std::string error;
  EXPECT_FALSE(ReadTelemetryDocument(path, &error).has_value());
  EXPECT_NE(error.find(path + ": "), std::string::npos) << error;
}

// --- Sampler -----------------------------------------------------------------

TEST(Sampler, SeriesStayAlignedAcrossStatReset) {
  StatSet stats;
  stats.Add("x", 10);
  StatSampler sampler(100);
  sampler.AddSource("", &stats);
  sampler.Sample(100);
  stats.Reset();
  stats.Add("x", 3);
  sampler.Sample(200);

  ASSERT_EQ(sampler.stamps().size(), 2u);
  const auto series = sampler.AlignedSeries();
  const auto& x = series.at("x");
  ASSERT_EQ(x.size(), 2u);
  // Cumulative series sawtooths through a reset instead of desyncing.
  EXPECT_EQ(x[0], 10.0);
  EXPECT_EQ(x[1], 3.0);
}

TEST(Sampler, LateSourcePadsLeadingZeros) {
  StatSet early;
  early.Add("a", 1);
  StatSampler sampler(10);
  sampler.AddSource("", &early);
  sampler.Sample(10);

  StatSet late;
  late.Add("b", 7);
  sampler.AddSource("late", &late);
  sampler.Sample(20);

  const auto series = sampler.AlignedSeries();
  const auto& b = series.at("late.b");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 0.0);  // Did not exist at the first stamp.
  EXPECT_EQ(b[1], 7.0);
}

TEST(Sampler, NextSampleCycleAdvancesByPeriod) {
  StatSampler off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.NextSampleCycle(), ~Cycle{0});

  StatSampler sampler(50);
  EXPECT_EQ(sampler.NextSampleCycle(), 50u);
  sampler.Sample(50);
  EXPECT_EQ(sampler.NextSampleCycle(), 100u);
}

// Builds a small attacking system so DRAM activity spans idle stretches,
// then checks sampling lands on identical boundaries with idle-skipping
// on and off.
std::map<std::string, std::vector<double>> RunSampledSystem(bool skip_idle, uint32_t channels,
                                                            std::vector<Cycle>* stamps) {
  SystemConfig config;
  config.cores = 1;
  config.dram.org.channels = channels;
  config.skip_idle = skip_idle;
  config.telemetry.sample_every = 4096;
  System system(config);
  auto tenants = SetupTenants(system, 1, 32);
  system.AssignCore(0, tenants[0],
                    MakeWorkload("stream", tenants[0], AddressSpace::BaseFor(tenants[0]),
                                 32 * kPageBytes, 3000, 1));
  system.RunFor(40000);
  *stamps = system.sampler().stamps();
  return system.sampler().AlignedSeries();
}

TEST(Sampler, SkipIdleAndTickProduceIdenticalSeries) {
  for (const uint32_t channels : {1u, 2u}) {
    std::vector<Cycle> stamps_skip;
    std::vector<Cycle> stamps_tick;
    const auto series_skip = RunSampledSystem(true, channels, &stamps_skip);
    const auto series_tick = RunSampledSystem(false, channels, &stamps_tick);
    ASSERT_FALSE(stamps_skip.empty());
    EXPECT_EQ(stamps_skip, stamps_tick) << channels << " channels";
    for (size_t i = 0; i < stamps_skip.size(); ++i) {
      EXPECT_EQ(stamps_skip[i], (i + 1) * 4096)
          << "sample off the k*period boundary, " << channels << " channels";
    }
    EXPECT_EQ(series_skip, series_tick) << channels << " channels";
  }
}

// --- JSON model --------------------------------------------------------------

TEST(Json, RoundTripPreservesStructure) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", JsonValue::Str("hammer \"time\"\n"));
  doc.Set("count", JsonValue::Uint(~0ull));
  doc.Set("delta", JsonValue::Int(-3));
  doc.Set("ratio", JsonValue::Double(0.1));
  doc.Set("flags", JsonValue::Array().Push(JsonValue::Bool(true)).Push(JsonValue::Null()));

  const std::string text = doc.ToString();
  std::string error;
  auto parsed = JsonValue::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(doc == *parsed);
  // Deterministic: same tree, same bytes.
  EXPECT_EQ(parsed->ToString(), text);
}

TEST(Json, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("", &error).has_value());
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &error).has_value());
}

TEST(Json, IntDoesNotEqualDouble) {
  EXPECT_FALSE(JsonValue::Uint(1) == JsonValue::Double(1.0));
  EXPECT_TRUE(JsonValue::Uint(5) == JsonValue::Int(5));
}

// --- Run reports -------------------------------------------------------------

TEST(Report, BuildAndValidateRoundTrip) {
  StatSet stats;
  stats.Add("mc.acts", 100);
  stats.Set("defense.locks_held", 2.0);
  stats.RecordLatency("mc.read_latency", 25);

  StatSampler sampler(1000);
  sampler.AddSource("", &stats);
  sampler.Sample(1000);

  TraceCounts counts;
  counts.trace_events = 42;
  counts.samples_taken = 1;
  JsonValue report = BuildRunReport("unit.scenario", JsonValue::Object(), JsonValue::Object(),
                                    stats, &sampler, 0.25, counts);
  std::string error;
  EXPECT_TRUE(ValidateRunReport(report, &error)) << error;

  std::vector<JsonValue> reports;
  reports.push_back(std::move(report));
  JsonValue metrics = MakeMetricsDocument(std::move(reports));
  EXPECT_TRUE(ValidateMetricsDocument(metrics, &error)) << error;

  // Survives a serialize/parse cycle (what trace_check actually sees).
  // Whole-value doubles re-parse as integers, so compare serialized bytes
  // (a fixpoint) rather than the trees.
  auto parsed = JsonValue::Parse(metrics.ToString(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(ValidateMetricsDocument(*parsed, &error)) << error;
  EXPECT_EQ(parsed->ToString(), metrics.ToString());
}

TEST(Report, ValidationFlagsMissingFields) {
  std::string error;
  JsonValue bogus = JsonValue::Object();
  bogus.Set("schema", JsonValue::Str("hammertime.run_report.v1"));
  EXPECT_FALSE(ValidateRunReport(bogus, &error));
  EXPECT_FALSE(error.empty());

  JsonValue wrong_schema = JsonValue::Object();
  wrong_schema.Set("schema", JsonValue::Str("something.else"));
  EXPECT_FALSE(ValidateMetricsDocument(wrong_schema, &error));
}

// --- End-to-end: traced system -----------------------------------------------

TEST(Telemetry, TracedAttackRunEmitsDramAndEpochEvents) {
  TraceSink sink;
  SystemConfig config;
  config.cores = 1;
  config.telemetry.trace = sink.CreateBuffer("attack");

  System system(config);
  auto tenants = SetupTenants(system, 2, 64);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  ASSERT_TRUE(plan.has_value());
  HammerConfig hammer;
  hammer.aggressors = plan->aggressor_vas;
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.RunFor(config.dram.retention.refresh_window + 10000);

  bool saw_act = false;
  bool saw_ref = false;
  bool saw_epoch = false;
  for (const TraceEvent& event : config.telemetry.trace->Snapshot()) {
    saw_act |= event.kind == TraceKind::kAct;
    saw_ref |= event.kind == TraceKind::kRef;
    saw_epoch |= event.kind == TraceKind::kEpochRollover;
  }
  EXPECT_TRUE(saw_act);
  EXPECT_TRUE(saw_ref);
  EXPECT_TRUE(saw_epoch);
  EXPECT_GT(sink.total_emitted(), 0u);
}

}  // namespace
}  // namespace ht
