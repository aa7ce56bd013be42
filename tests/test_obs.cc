/**
 * @file
 * Unit tests of the observability layer: the counter registry and its
 * order-independent snapshots, the JSON container (writer + strict
 * parser), the ring-buffered cycle tracer with its Chrome trace_event
 * output, bench-report schema validation, the shared DRS_* knob parser
 * (obs/env.h) and strict parsing of the DRS_TRACE / DRS_TRACE_CAPACITY
 * environment variables.
 */

#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "obs/counters.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace drs::obs {
namespace {

// ---------------------------------------------------------------- counters

TEST(Counters, HandlesAreStableAndSnapshotsSorted)
{
    Counters counters;
    Counter &swaps = counters.get("drs.swaps");
    Counter &misses = counters.get("l2.miss");
    swaps.add();
    swaps.add(4);
    misses.add(2);
    // Re-registration returns the same counter.
    counters.get("drs.swaps").add();

    const CounterSnapshot snap = counters.snapshot();
    EXPECT_EQ(snap.value("drs.swaps"), 6u);
    EXPECT_EQ(snap.value("l2.miss"), 2u);
    EXPECT_EQ(snap.value("absent"), 0u);
    EXPECT_TRUE(snap.contains("drs.swaps"));
    EXPECT_FALSE(snap.contains("absent"));

    // Sorted by name regardless of registration order.
    ASSERT_EQ(snap.entries().size(), 2u);
    EXPECT_EQ(snap.entries()[0].first, "drs.swaps");
    EXPECT_EQ(snap.entries()[1].first, "l2.miss");
}

TEST(Counters, ZeroRegisteredCountersAppearInSnapshot)
{
    Counters counters;
    counters.get("smx.swap.completed");
    const CounterSnapshot snap = counters.snapshot();
    EXPECT_TRUE(snap.contains("smx.swap.completed"));
    EXPECT_EQ(snap.value("smx.swap.completed"), 0u);
}

TEST(CounterSnapshot, MergeSumsByName)
{
    CounterSnapshot a;
    a.add("x", 1);
    a.add("y", 2);
    CounterSnapshot b;
    b.add("y", 3);
    b.add("z", 4);
    a.merge(b);
    EXPECT_EQ(a.value("x"), 1u);
    EXPECT_EQ(a.value("y"), 5u);
    EXPECT_EQ(a.value("z"), 4u);

    // add() on an existing name also sums.
    a.add("x", 9);
    EXPECT_EQ(a.value("x"), 10u);
}

TEST(CounterSnapshot, EqualityIsExact)
{
    CounterSnapshot a, b;
    a.add("n", 1);
    b.add("n", 1);
    EXPECT_EQ(a, b);
    b.add("n", 1);
    EXPECT_NE(a, b);
}

// -------------------------------------------------------------------- json

TEST(Json, RoundTripsThroughDumpAndParse)
{
    Json doc = Json::object();
    doc["name"] = "bench \"quoted\"\n";
    doc["count"] = 42;
    doc["rate"] = 0.25;
    doc["flag"] = true;
    doc["nothing"] = Json();
    doc["list"].push(1);
    doc["list"].push("two");
    doc["nested"]["deep"] = -7;

    for (const int indent : {0, 2}) {
        const auto parsed = Json::parse(doc.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
        EXPECT_EQ(*parsed, doc) << "indent " << indent;
    }
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json doc = Json::object();
    doc["zebra"] = 1;
    doc["alpha"] = 2;
    const std::string text = doc.dump();
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
}

TEST(Json, StrictParseRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "12 34", "{\"a\":1} trailing",
          "'single'", "{a:1}", "nul", "+5"}) {
        std::string error;
        EXPECT_FALSE(Json::parse(bad, &error).has_value())
            << "accepted: \"" << bad << '"';
        EXPECT_FALSE(error.empty()) << "no reason for: \"" << bad << '"';
    }
}

TEST(Json, FindReturnsNullWhenAbsent)
{
    Json doc = Json::object();
    doc["present"] = 1;
    EXPECT_NE(doc.find("present"), nullptr);
    EXPECT_EQ(doc.find("absent"), nullptr);
    EXPECT_EQ(Json(3).find("anything"), nullptr);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.record(TraceEventKind::Block, 0, 0, 10);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, RingKeepsNewestEventsAndCountsDrops)
{
    Tracer tracer;
    tracer.enable(4);
    for (int i = 0; i < 10; ++i)
        tracer.record(TraceEventKind::Block, i,
                      static_cast<std::uint64_t>(i),
                      static_cast<std::uint64_t>(i + 1), i);
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest retained first: events 6..9.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].warp, static_cast<std::int32_t>(6 + i));
}

TEST(TraceCollector, WritesParseableChromeTrace)
{
    TraceCollector collector(2, 16);
    collector.smx(0).setBlockNames({"b1_outer", "b2_inner"});
    collector.smx(0).record(TraceEventKind::Block, 3, 10, 20, 1);
    collector.smx(0).record(TraceEventKind::RdctrlStall, 3, 20, 25);
    collector.smx(1).record(TraceEventKind::RaySwap, -1, 5, 36);
    EXPECT_EQ(collector.eventCount(), 3u);

    std::ostringstream out;
    collector.writeChromeTrace(out);
    std::string error;
    const auto doc = Json::parse(out.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    const Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // 3 duration events + process metadata records.
    std::size_t complete = 0;
    bool saw_block_name = false;
    for (const Json &event : events->asArray()) {
        const Json *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "X") {
            ++complete;
            EXPECT_NE(event.find("pid"), nullptr);
            EXPECT_NE(event.find("tid"), nullptr);
            EXPECT_NE(event.find("ts"), nullptr);
            EXPECT_NE(event.find("dur"), nullptr);
            if (const Json *name = event.find("name");
                name && name->asString() == "b2_inner")
                saw_block_name = true;
        }
    }
    EXPECT_EQ(complete, 3u);
    EXPECT_TRUE(saw_block_name)
        << "Block events must be labelled with kernel block names";
}

// ----------------------------------------------------- environment parsing

class TraceEnvironment : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        unsetenv("DRS_TRACE");
        unsetenv("DRS_TRACE_CAPACITY");
    }
    void TearDown() override
    {
        unsetenv("DRS_TRACE");
        unsetenv("DRS_TRACE_CAPACITY");
    }
};

TEST_F(TraceEnvironment, DisabledByDefault)
{
    const auto config = TraceConfig::fromEnvironment();
    EXPECT_FALSE(config.enabled);
    EXPECT_EQ(config.capacity, 65536u);
}

TEST_F(TraceEnvironment, EnabledWithPathAndCapacity)
{
    setenv("DRS_TRACE", "/tmp/trace.json", 1);
    setenv("DRS_TRACE_CAPACITY", "1024", 1);
    const auto config = TraceConfig::fromEnvironment();
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.path, "/tmp/trace.json");
    EXPECT_EQ(config.capacity, 1024u);
}

TEST_F(TraceEnvironment, EmptyPathIsRejected)
{
    // DRS_TRACE= left over in a script must not "trace to nowhere".
    setenv("DRS_TRACE", "", 1);
    EXPECT_FALSE(TraceConfig::fromEnvironment().enabled);
}

TEST_F(TraceEnvironment, MalformedCapacityIsRejected)
{
    setenv("DRS_TRACE", "/tmp/trace.json", 1);
    const TraceConfig defaults;
    for (const char *bad : {"lots", "12oo", "-5", "0", "", "nan"}) {
        setenv("DRS_TRACE_CAPACITY", bad, 1);
        const auto config = TraceConfig::fromEnvironment();
        EXPECT_TRUE(config.enabled) << "DRS_TRACE_CAPACITY=\"" << bad << '"';
        EXPECT_EQ(config.capacity, defaults.capacity)
            << "DRS_TRACE_CAPACITY=\"" << bad << '"';
    }
    // Trailing whitespace is harmless (same contract as DRS_SMX).
    setenv("DRS_TRACE_CAPACITY", "512 ", 1);
    EXPECT_EQ(TraceConfig::fromEnvironment().capacity, 512u);
}

// ------------------------------------------------------------ knob parser

TEST(KnobParser, PinsTheSharedContract)
{
    using I = std::optional<long long>;
    const std::pair<const char *, I> ints[] = {
        {"42", 42},       {" 42\t", 42},   // surrounding whitespace
        {"+7", 7},        {"0x1f", 31},    {"0XFF", 255},
        {"010", 10},                       // decimal, never octal
        {"-8", -8},       {"255", 255},    // range edges of [-8, 255]
        {"-9", I{}},      {"256", I{}},    {"0x100", I{}},
        {"2.5", I{}},     {"1e2", I{}},    {"12oo", I{}},
        {"4 2", I{}},     {"0x", I{}},     {"0x-1", I{}},
        {"+", I{}},       {"--1", I{}},    {"", I{}},
        {"  ", I{}},
    };
    for (const auto &[text, want] : ints)
        EXPECT_EQ(parseInt(text, -8, 255), want) << '"' << text << '"';

    constexpr long long kMin = std::numeric_limits<long long>::min();
    constexpr long long kMax = std::numeric_limits<long long>::max();
    const std::pair<const char *, I> overflow[] = {
        {"9223372036854775807", kMax},  {"-9223372036854775808", kMin},
        {"9223372036854775808", I{}},   {"-9223372036854775809", I{}},
        {"99999999999999999999", I{}},  {"0x10000000000000000", I{}},
    };
    for (const auto &[text, want] : overflow)
        EXPECT_EQ(parseInt(text, kMin, kMax), want) << '"' << text << '"';

    using U = std::optional<std::uint64_t>;
    const std::pair<const char *, U> unsigneds[] = {
        {"18446744073709551615", ~0ull}, {"18446744073709551616", U{}},
        {" 0xbeef ", 0xbeefull},         {"010", 10ull},
        {"-5", U{}},                     {"+5", U{}},
        {"", U{}},
    };
    for (const auto &[text, want] : unsigneds)
        EXPECT_EQ(parseUnsigned(text), want) << '"' << text << '"';

    using R = std::optional<double>;
    const std::pair<const char *, R> reals[] = {
        {"0.25", 0.25}, {" 1 ", 1.0},   {"+0.5", 0.5},  {"1e-1", 0.1},
        {"0", 0.0},     {"1.5", R{}},   {"-0.1", R{}},  {"nan", R{}},
        {"inf", R{}},   {"1e400", R{}}, {"+-1", R{}},   {"0.5x", R{}},
        {"", R{}},
    };
    for (const auto &[text, want] : reals)
        EXPECT_EQ(parseReal(text, 0.0, 1.0), want) << '"' << text << '"';
    EXPECT_FALSE(parseReal("0", kPositive, 1.0));
    EXPECT_TRUE(parseReal("1e-300", kPositive, 1.0));

    // 0|1 flags are integers in [0, 1].
    const std::pair<const char *, I> flags[] = {
        {"0", 0}, {" 1 ", 1}, {"yes", I{}}, {"2", I{}}, {"", I{}},
    };
    for (const auto &[text, want] : flags)
        EXPECT_EQ(parseInt(text, 0, 1), want) << '"' << text << '"';
}

// ------------------------------------------------------------ bench report

Json
validReport()
{
    BenchReport report("unit_test");
    report.scale()["rays_per_bounce"] = 4096;
    report.options()["jobs"] = 2;
    report.setWallSeconds(1.5);
    Json &row = report.addResult();
    row["scene"] = "conference";
    row["arch"] = "drs";
    row["simd_efficiency"] = 0.8;
    row["cycles"] = 1000;
    row["counters"] = Json::object();
    row["counters"]["drs.swaps"] = 12;
    report.summary()["drs_geomean_speedup"] = 1.9;
    return report.document();
}

TEST(BenchReport, ValidDocumentPasses)
{
    EXPECT_EQ(validateBenchReport(validReport()), "");
}

TEST(BenchReport, ValidatorCatchesSchemaViolations)
{
    {
        Json doc = validReport();
        doc["bench"] = "";
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        Json doc = validReport();
        doc["schema_version"] = kBenchSchemaVersion + 1;
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        Json doc = validReport();
        doc["wall_seconds"] = -1.0;
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        Json doc = validReport();
        doc["results"].push(Json::object())["simd_efficiency"] = 1.5;
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        Json doc = validReport();
        doc["results"].push(Json::object())["scene"] = 7;
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        Json doc = validReport();
        Json &row = doc["results"].push(Json::object());
        row["counters"]["drs.swaps"] = -3;
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        // Attribution must conserve: bucket totals sum to total_slots.
        Json doc = validReport();
        Json &attribution =
            doc["results"].push(Json::object())["attribution"];
        attribution["slots_per_cycle"] = 8;
        attribution["cycles"] = 10;
        attribution["total_slots"] = 80;
        attribution["buckets"]["issued"]["total"] = 80;
        EXPECT_EQ(validateBenchReport(doc), "");
        attribution["buckets"]["issued"]["total"] = 70;
        EXPECT_NE(validateBenchReport(doc), "");
    }
    {
        Json doc = validReport();
        const auto fleet = [&doc](int respawned, int frames,
                                  bool with_cancelled) {
            Json &section = doc["summary"]["fleet"];
            section = Json::object();
            for (const char *field :
                 {"workers", "spawned", "worker_deaths", "heartbeat_kills",
                  "redispatched", "quarantined", "degraded_jobs"})
                section[field] = 2;
            section["respawned"] = respawned;
            if (with_cancelled)
                section["cancelled"] = false;
            for (const char *field :
                 {"jobs_reported", "cycles", "rays_traced", "job_seconds",
                  "user_cpu_seconds", "sys_cpu_seconds", "peak_rss_kb",
                  "max_heartbeat_lag_us"})
                section["telemetry"][field] = 2;
            section["telemetry"]["frames"] = frames;
            return validateBenchReport(doc);
        };
        EXPECT_EQ(fleet(2, 2, true), "");
        EXPECT_NE(fleet(3, 2, true), "") << "respawned > spawned";
        EXPECT_NE(fleet(2, 1, true), "") << "jobs_reported > frames";
        EXPECT_NE(fleet(2, 2, false), "") << "no summary.fleet.cancelled";
    }
    {
        const Json full = validReport();
        Json doc = Json::object();
        for (const auto &[key, value] : full.asObject())
            if (key != "summary")
                doc[key] = value;
        EXPECT_NE(validateBenchReport(doc), "") << "no summary object";
    }
    {
        const double inf = std::numeric_limits<double>::infinity();
        Json row_doc = validReport();
        row_doc["results"].push(Json::object())["mrays_per_s"] = inf;
        EXPECT_NE(validateBenchReport(row_doc), "") << "+Inf in a row";
        Json summary_doc = validReport();
        summary_doc["summary"]["nested"]["ratio"] = inf;
        EXPECT_NE(validateBenchReport(summary_doc), "")
            << "+Inf in the summary";
    }
}

} // namespace
} // namespace drs::obs
