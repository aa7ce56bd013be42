/**
 * @file
 * drs_inspect: the one reader of the artifacts the benches, sweeps and
 * fleets leave behind, and the one implementation of every rule the
 * gates apply to them. Every subcommand loads JSON through the same
 * loader and shares the exit status: 0 = ok, 1 = rejected, 2 = usage or
 * I/O error. kCommands at the end is the usage table; run with no
 * arguments to print it.
 */

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/sweep.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/report.h"
#include "stats/table.h"

namespace {

using drs::obs::Json;
using Argv = std::vector<std::string>;

constexpr int kOk = 0;
constexpr int kRejected = 1;
constexpr int kUsage = 2;

int usage(std::string_view command);

// ---------------------------------------------------------------------
// Shared loading and field access

/** One whole-file JSON document; nullopt with the reason in @p why. */
std::optional<Json>
loadJson(const std::string &path, std::string *why)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *why = "cannot open file";
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return Json::parse(text.str(), why);
}

/** loadJson for the commands that stop at an unreadable file. */
std::optional<Json>
readDocument(const std::string &path)
{
    std::string why;
    std::optional<Json> document = loadJson(path, &why);
    if (!document)
        std::fprintf(stderr, "drs_inspect: cannot read %s: %s\n",
                     path.c_str(), why.c_str());
    return document;
}

/**
 * Feed every non-empty line of the JSONL file @p path to @p accept,
 * which returns false for a malformed record. One malformed line is
 * tolerated as the last line, the debris of a crash mid-append; a line
 * after it is corruption the writers never produce, and sets
 * *corrupt. @return the number of malformed lines, or nullopt when the
 * file cannot be opened.
 */
std::optional<std::size_t>
readJsonLines(const std::string &path, bool *corrupt,
              const std::function<bool(const Json &, std::size_t)> &accept)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "drs_inspect: cannot open %s\n", path.c_str());
        return std::nullopt;
    }
    std::size_t torn = 0;
    std::size_t lineNumber = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lineNumber;
        if (line.empty())
            continue;
        if (torn > 0) {
            std::fprintf(stderr,
                         "drs_inspect: %s:%zu follows a malformed line — "
                         "corrupt beyond a crash tail\n",
                         path.c_str(), lineNumber);
            *corrupt = true;
        }
        const std::optional<Json> record = Json::parse(line);
        if (!record || !accept(*record, lineNumber))
            ++torn;
    }
    if (torn > 1) {
        std::fprintf(stderr,
                     "drs_inspect: %s has %zu malformed lines (at most one "
                     "crash tail is expected)\n",
                     path.c_str(), torn);
        *corrupt = true;
    }
    return torn;
}

std::string
stringField(const Json &object, const char *key, const char *fallback = "-")
{
    const Json *v = object.find(key);
    return v && v->isString() ? v->asString() : std::string(fallback);
}

double
numberField(const Json &object, const char *key, double fallback = 0.0)
{
    const Json *v = object.find(key);
    return v && v->isNumber() ? v->asDouble() : fallback;
}

std::uint64_t
uintField(const Json &object, const char *key)
{
    const Json *v = object.find(key);
    return v && v->isNumber() ? v->asUint() : 0;
}

/**
 * A whole number. Json keeps no lexical form, so an integral value
 * written with a fraction ("5.0") counts too.
 */
bool
isInteger(const Json *v)
{
    return v && v->isNumber() && std::isfinite(v->asDouble()) &&
           v->asDouble() == std::floor(v->asDouble());
}

bool
isCount(const Json *v)
{
    return isInteger(v) && v->asDouble() >= 0.0;
}

/** A subcommand's arguments: positionals plus "--option" -> value. */
struct Args
{
    Argv positional;
    std::map<std::string, std::string> options;
};

/**
 * Split @p argv: each option in @p valued takes the next argument, each
 * in @p flags takes none (its value is ""). Any other argument starting
 * with '-' is a usage error (nullopt).
 */
std::optional<Args>
parseArgs(const Argv &argv, std::initializer_list<std::string_view> valued,
          std::initializer_list<std::string_view> flags = {})
{
    const auto in = [](std::initializer_list<std::string_view> list,
                       const std::string &arg) {
        return std::find(list.begin(), list.end(), arg) != list.end();
    };
    Args args;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (in(valued, arg)) {
            if (i + 1 == argv.size())
                return std::nullopt;
            args.options[arg] = argv[++i];
        } else if (in(flags, arg)) {
            args.options[arg] = "";
        } else if (arg.size() > 1 && arg[0] == '-') {
            return std::nullopt;
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

// ---------------------------------------------------------------------
// validate

int
runValidate(const Argv &argv)
{
    const auto args = parseArgs(argv, {}, {"--expect-fail"});
    if (!args || args->positional.empty())
        return usage("validate");
    std::size_t passes = 0;
    for (const std::string &path : args->positional) {
        std::string reason;
        const std::optional<Json> document = loadJson(path, &reason);
        if (document)
            reason = drs::obs::validateBenchReport(*document);
        if (reason.empty()) {
            const Json *rows = document->find("results");
            std::printf("ok   %s (%zu result rows)\n", path.c_str(),
                        rows ? rows->size() : 0);
            ++passes;
        } else {
            std::printf("FAIL %s: %s\n", path.c_str(), reason.c_str());
        }
    }
    const bool met = args->options.count("--expect-fail")
                         ? passes == 0
                         : passes == args->positional.size();
    return met ? kOk : kRejected;
}

// ---------------------------------------------------------------------
// journal

/**
 * Audit a sweep journal (one harness::sweepResultToJson record per
 * finished job): no (job, key) reported twice, no index under two keys
 * (interleaved sweeps), at most one torn tail line, and with --expect N
 * exactly the jobs 0..N-1. Prints a per-job table and a verdict line.
 */
int
runJournal(const Argv &argv)
{
    const auto args = parseArgs(argv, {"--expect"});
    if (!args || args->positional.size() != 1)
        return usage("journal");
    long long expect = -1;
    if (args->options.count("--expect")) {
        const auto v =
            drs::obs::parseInt(args->options.at("--expect"), 0, LLONG_MAX);
        if (!v)
            return usage("journal");
        expect = *v;
    }
    const std::string &path = args->positional[0];

    struct JobRecord
    {
        std::string key;
        std::size_t line = 0;
        drs::harness::SweepResult result;
    };
    // Job index -> first record, for the table, the duplicate checks
    // and the --expect census.
    std::map<std::uint64_t, JobRecord> byIndex;
    std::size_t records = 0, ran = 0, failed = 0;
    bool corrupt = false;
    const auto torn = readJsonLines(
        path, &corrupt, [&](const Json &entry, std::size_t line) {
            JobRecord record;
            std::uint64_t index = 0;
            if (!drs::harness::sweepResultFromJson(entry, &index, &record.key,
                                                   &record.result)
                     .empty())
                return false;
            ++records;
            ran += record.result.ran ? 1 : 0;
            failed += record.result.failed ? 1 : 0;
            record.line = line;
            const auto [it, fresh] = byIndex.emplace(index, record);
            if (!fresh) {
                // Same key: double-reported; two keys: journals interleaved.
                std::fprintf(stderr,
                             "drs_inspect: job %llu reported twice: lines "
                             "%zu (%s) and %zu (%s)\n",
                             static_cast<unsigned long long>(index),
                             it->second.line, it->second.key.c_str(), line,
                             record.key.c_str());
                corrupt = true;
            }
            return true;
        });
    if (!torn)
        return kUsage;
    bool ok = !corrupt;
    if (expect >= 0) {
        for (long long i = 0; i < expect; ++i)
            if (!byIndex.count(static_cast<std::uint64_t>(i))) {
                std::fprintf(stderr,
                             "drs_inspect: job %lld missing (expected jobs "
                             "0..%lld)\n",
                             i, expect - 1);
                ok = false;
            }
        if (records != static_cast<std::size_t>(expect)) {
            std::fprintf(stderr,
                         "drs_inspect: %zu records, expected exactly %lld\n",
                         records, expect);
            ok = false;
        }
    }
    if (!byIndex.empty()) {
        std::size_t keyWidth = 3;
        for (const auto &[index, record] : byIndex)
            keyWidth = std::max(keyWidth, record.key.size());
        std::printf("%6s  %-*s  %8s  %9s  %s\n", "job",
                    static_cast<int>(keyWidth), "key", "attempts",
                    "seconds", "outcome");
        for (const auto &[index, record] : byIndex) {
            const drs::harness::SweepResult &r = record.result;
            const char *outcome = r.failed        ? "quarantined"
                                  : r.fromJournal ? "replayed"
                                  : r.ran         ? "ok"
                                                  : "skipped";
            std::printf("%6llu  %-*s  %8d  %9.3f  %s%s\n",
                        static_cast<unsigned long long>(index),
                        static_cast<int>(keyWidth), record.key.c_str(),
                        r.attempts, r.seconds, outcome,
                        r.attempts > 1 && !r.failed ? " (retried)" : "");
        }
    }
    std::printf("journal %s: %zu records (%zu ran, %zu failed), %zu torn "
                "tail line%s, %zu distinct jobs — %s\n",
                path.c_str(), records, ran, failed, *torn,
                *torn == 1 ? "" : "s", byIndex.size(),
                ok ? "OK" : "FAILED");
    return ok ? kOk : kRejected;
}

// ---------------------------------------------------------------------
// events

/** Flatten an event's data object into "k=v k=v" for one-line output. */
std::string
dataText(const Json *data)
{
    if (!data || !data->isObject())
        return "";
    std::string text;
    for (const auto &[key, value] : data->asObject()) {
        if (!text.empty())
            text += " ";
        std::string v = value.isString() ? value.asString() : value.dump();
        std::replace(v.begin(), v.end(), '\n', ' ');
        if (v.size() > 60)
            v = v.substr(0, 57) + "...";
        text += key + "=" + v;
    }
    return text;
}

/** Fleet lifecycle events worth a timeline line. */
bool
isSupervisionEvent(const Json &e)
{
    static const char *kEvents[] = {
        "worker_death", "respawn",         "heartbeat_kill", "redispatch",
        "quarantine",   "crash_injection", "degraded",       "cancelled",
        "hang",         "kill"};
    const std::string subsystem = stringField(e, "subsystem");
    return (subsystem == "fleet" || subsystem == "chaos" ||
            subsystem == "sweep") &&
           std::find(std::begin(kEvents), std::end(kEvents),
                     stringField(e, "event")) != std::end(kEvents);
}

/** "subsystem.event" of an obs::EventLog record. */
std::string
eventName(const Json &e)
{
    return stringField(e, "subsystem", "") + "." + stringField(e, "event", "");
}

/**
 * Analyze obs::EventLog JSONL logs: per-(subsystem, event) counts, the
 * fleet supervision timeline, the slowest jobs (last fleet.dispatch to
 * fleet.job_done, both Debug records) and the rate limiter's
 * suppressed totals. With --count SUBSYSTEM.EVENT print only that
 * event's total across all files.
 */
int
runEvents(const Argv &argv)
{
    const auto args = parseArgs(argv, {"--count"});
    if (!args || args->positional.empty())
        return usage("events");
    const std::string countKey =
        args->options.count("--count") ? args->options.at("--count") : "";
    const std::size_t dot = countKey.find('.');
    if (!countKey.empty() &&
        (dot == std::string::npos || dot == 0 || dot + 1 == countKey.size()))
        return usage("events");

    std::vector<Json> events;
    bool ok = true;
    for (const std::string &path : args->positional) {
        bool corrupt = false;
        const auto torn =
            readJsonLines(path, &corrupt, [&](const Json &e, std::size_t) {
                if (stringField(e, "subsystem", "").empty() ||
                    stringField(e, "event", "").empty())
                    return false;
                events.push_back(e);
                return true;
            });
        if (!torn)
            return kUsage;
        ok = ok && !corrupt;
    }

    if (!countKey.empty()) {
        std::printf("%lld\n", static_cast<long long>(std::count_if(
                                  events.begin(), events.end(),
                                  [&](const Json &e) {
                                      return eventName(e) == countKey;
                                  })));
        return ok ? kOk : kRejected;
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const Json &a, const Json &b) {
                         return uintField(a, "ts_us") < uintField(b, "ts_us");
                     });
    const std::uint64_t epoch =
        events.empty() ? 0 : uintField(events[0], "ts_us");

    // name -> (count, level of the last record).
    std::map<std::string, std::pair<std::uint64_t, std::string>> counts;
    std::uint64_t suppressed = 0;
    for (const Json &e : events) {
        auto &[count, level] = counts[eventName(e)];
        ++count;
        level = stringField(e, "level", "");
        if (eventName(e) == "log.rate_limited")
            if (const Json *data = e.find("data"))
                suppressed += uintField(*data, "suppressed");
    }
    std::printf("== event counts (%zu records) ==\n", events.size());
    for (const auto &[name, value] : counts)
        std::printf("%8llu  %-5s  %s\n",
                    static_cast<unsigned long long>(value.first),
                    value.second.c_str(), name.c_str());
    if (suppressed > 0)
        std::printf("%8llu  (suppressed by the rate limiter — counts above "
                    "are incomplete)\n",
                    static_cast<unsigned long long>(suppressed));

    std::printf("\n== supervision timeline ==\n");
    std::size_t timelineLines = 0;
    for (const Json &e : events) {
        if (!isSupervisionEvent(e))
            continue;
        std::printf("+%9.3fs  [%llu] %s %s\n",
                    static_cast<double>(uintField(e, "ts_us") - epoch) / 1e6,
                    static_cast<unsigned long long>(uintField(e, "pid")),
                    eventName(e).c_str(), dataText(e.find("data")).c_str());
        ++timelineLines;
    }
    if (timelineLines == 0)
        std::printf("(no supervision events — a clean run)\n");

    // Slowest jobs: pair each job's last dispatch with its job_done.
    std::map<std::uint64_t, std::pair<std::uint64_t, double>> timings;
    for (const Json &e : events) {
        const Json *data = e.find("data");
        const Json *job = data ? data->find("job") : nullptr;
        if (stringField(e, "subsystem") != "fleet" || !job ||
            !job->isNumber())
            continue;
        const std::uint64_t ts = uintField(e, "ts_us");
        auto &[dispatchTs, seconds] =
            timings.try_emplace(job->asUint(), 0, -1.0).first->second;
        if (stringField(e, "event") == "dispatch")
            dispatchTs = ts;
        else if (stringField(e, "event") == "job_done" && dispatchTs != 0 &&
                 ts >= dispatchTs)
            seconds = static_cast<double>(ts - dispatchTs) / 1e6;
    }
    std::vector<std::pair<std::uint64_t, double>> slowest;
    for (const auto &[job, timing] : timings)
        if (timing.second >= 0.0)
            slowest.emplace_back(job, timing.second);
    if (!slowest.empty()) {
        std::sort(slowest.begin(), slowest.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        if (slowest.size() > 10)
            slowest.resize(10);
        std::printf("\n== slowest jobs (dispatch -> done) ==\n");
        for (const auto &[job, seconds] : slowest)
            std::printf("%9.3fs  job %llu\n", seconds,
                        static_cast<unsigned long long>(job));
    }
    return ok ? kOk : kRejected;
}

// ---------------------------------------------------------------------
// merge

/**
 * Stitch fleet trace shards (<trace>.w<worker>.j<job> and
 * <trace>.coord) into one document: each shard's pids move onto a
 * disjoint range, process names gain the shard's basename, and
 * otherData.dropped_events is summed. A torn shard (a SIGKILLed worker
 * dying mid-write) is skipped with a warning. Timestamps are not
 * rebased: workers tick in core cycles, the coordinator in wall-clock
 * microseconds.
 */
int
runMerge(const Argv &argv)
{
    const auto args = parseArgs(argv, {"-o"});
    if (!args || !args->options.count("-o") || args->positional.empty())
        return usage("merge");
    const std::string &outPath = args->options.at("-o");

    Json merged = Json::object();
    Json &events = merged["traceEvents"];
    events = Json::array();
    std::uint64_t pidBase = 0, droppedTotal = 0;
    std::size_t shardsMerged = 0, shardsSkipped = 0, eventCount = 0;
    for (const std::string &path : args->positional) {
        std::string why;
        const std::optional<Json> shard = loadJson(path, &why);
        const Json *shardEvents = shard ? shard->find("traceEvents") : nullptr;
        if (!shardEvents || !shardEvents->isArray()) {
            std::fprintf(stderr, "drs_inspect: skipping shard %s (%s)\n",
                         path.c_str(),
                         shard ? "no traceEvents array" : why.c_str());
            ++shardsSkipped;
            continue;
        }
        if (const Json *other = shard->find("otherData"))
            droppedTotal += uintField(*other, "dropped_events");

        const std::string label =
            std::filesystem::path(path).filename().string();
        std::uint64_t maxPid = 0;
        for (const Json &event : shardEvents->asArray()) {
            if (!event.isObject())
                continue;
            Json copy = event;
            const std::uint64_t pid = uintField(event, "pid");
            maxPid = std::max(maxPid, pid);
            copy["pid"] = Json(pidBase + pid);
            // Qualify process names with the shard so merged tracks
            // stay attributable ("...w1.j3: SMX 0" vs "...coord: ...").
            const Json *args = event.find("args");
            const Json *pname = args ? args->find("name") : nullptr;
            if (stringField(event, "name") == "process_name" && pname &&
                pname->isString())
                copy["args"]["name"] = Json(label + ": " + pname->asString());
            events.push(std::move(copy));
            ++eventCount;
        }
        pidBase += maxPid + 1;
        ++shardsMerged;
    }
    if (shardsMerged == 0) {
        std::fprintf(stderr, "drs_inspect: no readable shards\n");
        return kRejected;
    }

    merged["displayTimeUnit"] = Json("ns");
    Json &other = merged["otherData"];
    other = Json::object();
    other["timestamp_unit"] = Json("per shard (see sources)");
    other["dropped_events"] = Json(droppedTotal);
    other["shards_merged"] = Json(static_cast<std::uint64_t>(shardsMerged));
    other["shards_skipped"] = Json(static_cast<std::uint64_t>(shardsSkipped));
    std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
    merged.dump(out);
    out << "\n";
    out.flush();
    if (!out) {
        std::fprintf(stderr, "drs_inspect: cannot write %s\n",
                     outPath.c_str());
        return kUsage;
    }
    std::printf("merged %zu shard%s (%zu skipped): %zu events, "
                "%llu dropped -> %s\n",
                shardsMerged, shardsMerged == 1 ? "" : "s", shardsSkipped,
                eventCount, static_cast<unsigned long long>(droppedTotal),
                outPath.c_str());
    return kOk;
}

// ---------------------------------------------------------------------
// profile

/** Identity columns shared by every per-row table. */
std::vector<std::string>
rowIdentity(const Json &row)
{
    return {stringField(row, "scene"), stringField(row, "arch"),
            stringField(row, "config"), stringField(row, "bounce")};
}

/** Sparkline of @p values scaled to their own maximum. */
std::string
sparkline(const std::vector<double> &values)
{
    static const char *kLevels[] = {"▁", "▂", "▃", "▄",
                                    "▅", "▆", "▇", "█"};
    const double max =
        values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
    std::string out;
    for (double v : values)
        out += kLevels[max > 0.0 ? std::min(7, static_cast<int>(
                                                   v / max * 7.999))
                                 : 0];
    return out;
}

const char *kBuckets[] = {"issued_full",        "issued_partial",
                          "stalled_rdctrl",     "stalled_memory",
                          "stalled_scoreboard", "no_ready_warp",
                          "drained"};
const char *kPhases[] = {"fetch", "inner", "leaf", "none"};

/**
 * One row of the slot table (each bucket's share of @p total) and one
 * of the phase table (the traversal phases of the issued slots only:
 * where the machine spent the work it actually did).
 */
void
addSlotRows(const Json &row, const Json &buckets, double total,
            drs::stats::Table &slots, drs::stats::Table &phases)
{
    std::vector<std::string> slotRow = rowIdentity(row);
    for (const char *name : kBuckets) {
        const Json *bucket = buckets.find(name);
        slotRow.push_back(drs::stats::formatPercent(
            (bucket ? numberField(*bucket, "total") : 0.0) / total));
    }
    slots.addRow(std::move(slotRow));

    std::map<std::string, double> phaseSlots;
    double issued = 0.0;
    for (const char *name : {"issued_full", "issued_partial"})
        if (const Json *bucket = buckets.find(name))
            for (const char *phase : kPhases) {
                phaseSlots[phase] += numberField(*bucket, phase);
                issued += numberField(*bucket, phase);
            }
    std::vector<std::string> phaseRow = rowIdentity(row);
    for (const char *phase : kPhases)
        phaseRow.push_back(drs::stats::formatPercent(
            issued > 0.0 ? phaseSlots[phase] / issued : 0.0));
    phases.addRow(std::move(phaseRow));
}

void
printAttributionTables(const Json &results, std::size_t topK)
{
    drs::stats::Table slots({"scene", "arch", "config", "bounce",
                             "issued_full", "issued_partial",
                             "stalled_rdctrl", "stalled_memory",
                             "stalled_scoreboard", "no_ready_warp",
                             "drained"});
    drs::stats::Table phases({"scene", "arch", "config", "bounce", "fetch",
                              "inner", "leaf", "none"});
    drs::stats::Table blocks({"scene", "arch", "config", "bounce", "block",
                              "issues", "avg active"});
    for (const Json &row : results.asArray()) {
        const Json *attribution = row.find("attribution");
        if (!attribution)
            continue;
        const Json *buckets = attribution->find("buckets");
        const double total = numberField(*attribution, "total_slots");
        if (buckets && total > 0.0)
            addSlotRows(row, *buckets, total, slots, phases);

        const Json *list = attribution->find("blocks");
        if (!list || !list->isArray())
            continue;
        for (std::size_t i = 0; i < list->size() && i < topK; ++i) {
            const Json &block = list->asArray()[i];
            const double issues = numberField(block, "issues");
            const double active = numberField(block, "active_threads");
            std::vector<std::string> blockRow = rowIdentity(row);
            blockRow.push_back(stringField(block, "name"));
            blockRow.push_back(
                std::to_string(static_cast<unsigned long long>(issues)));
            blockRow.push_back(drs::stats::formatDouble(
                issues > 0.0 ? active / issues : 0.0, 1));
            blocks.addRow(std::move(blockRow));
        }
    }
    if (slots.numRows() == 0) {
        std::cout << "no attribution sections (run the bench with "
                     "DRS_SAMPLE=<cycles> to profile)\n\n";
        return;
    }
    std::cout << "issue-slot breakdown (% of all scheduler slots)\n";
    slots.print(std::cout);
    std::cout << "\ntraversal-phase split of issued slots\n";
    phases.print(std::cout);
    std::cout << "\n";
    if (blocks.numRows() != 0) {
        std::cout << "hottest blocks (by issued instructions)\n";
        blocks.print(std::cout);
        std::cout << "\n";
    }
}

void
printTimelines(const Json &results)
{
    bool any = false;
    for (const Json &row : results.asArray()) {
        const Json *timeline = row.find("timeline");
        const Json *frames = timeline ? timeline->find("frames") : nullptr;
        if (!frames || !frames->isArray() || frames->size() == 0)
            continue;
        any = true;
        std::vector<double> efficiency, stalled;
        for (const Json &frame : frames->asArray()) {
            efficiency.push_back(numberField(frame, "simd_efficiency"));
            double lost = 0.0, total = 0.0;
            if (const Json *slots = frame.find("slots"))
                for (const auto &[name, value] : slots->asObject()) {
                    total += value.asDouble();
                    if (name.compare(0, 6, "issued") != 0)
                        lost += value.asDouble();
                }
            stalled.push_back(total > 0.0 ? lost / total : 0.0);
        }
        std::cout << stringField(row, "scene") << "/"
                  << stringField(row, "arch");
        if (row.find("config"))
            std::cout << "/" << stringField(row, "config");
        if (row.find("bounce"))
            std::cout << " " << stringField(row, "bounce");
        std::cout << "  (" << frames->size() << " windows of "
                  << static_cast<unsigned long long>(
                         numberField(*timeline, "interval"))
                  << " cycles)\n";
        std::cout << "  simd eff   " << sparkline(efficiency) << "\n";
        std::cout << "  lost slots " << sparkline(stalled) << "\n";
    }
    if (any)
        std::cout << "\n";
}

/**
 * Render schema-valid bench reports as issue-slot breakdowns,
 * traversal-phase splits, the --top N hottest blocks per row and
 * timeline sparklines. Reports without profiler sections (no
 * DRS_SAMPLE) still print their header.
 */
int
runProfile(const Argv &argv)
{
    const auto args = parseArgs(argv, {"--top"});
    if (!args || args->positional.empty())
        return usage("profile");
    std::size_t topK = 8;
    if (args->options.count("--top")) {
        const auto v =
            drs::obs::parseInt(args->options.at("--top"), 1, LLONG_MAX);
        if (!v)
            return usage("profile");
        topK = static_cast<std::size_t>(*v);
    }
    int status = kOk;
    for (const std::string &path : args->positional) {
        std::string problem;
        const std::optional<Json> doc = loadJson(path, &problem);
        if (doc)
            problem = drs::obs::validateBenchReport(*doc);
        if (!problem.empty()) {
            std::fprintf(stderr, "drs_inspect: %s: %s\n", path.c_str(),
                         problem.c_str());
            status = kRejected;
            continue;
        }
        std::cout << "==== " << stringField(*doc, "bench") << " (" << path
                  << ") ====\n";
        if (const Json *degraded = doc->find("degraded");
            degraded && degraded->asBool())
            std::cout << "WARNING: degraded report (quarantined jobs) — "
                         "numbers are incomplete\n";
        if (const Json *scale = doc->find("scale");
            scale && scale->isObject()) {
            std::cout << "scale:";
            for (const auto &[key, value] : scale->asObject())
                std::cout << " " << key << "=" << value.dump();
            std::cout << "\n";
        }
        std::cout << "\n";
        printAttributionTables(*doc->find("results"), topK);
        printTimelines(*doc->find("results"));
    }
    return status;
}

// ---------------------------------------------------------------------
// trace

/** What a Chrome trace holds, gathered while checking it. */
struct TraceSummary
{
    unsigned long long spans = 0, counters = 0, instants = 0, metadata = 0;
    double lastTs = 0.0;
    std::map<std::string, std::uint64_t> spanNames;
    std::map<std::string, std::uint64_t> instantKinds; // first word
};

/**
 * Why @p document is not a well-formed obs::TraceCollector trace, ""
 * when it is. The rules are the ones a Perfetto load would only fail
 * silently on: a non-negative otherData.dropped_events; every event is
 * ph "X" (span), "C" (counter), "i" (instant) or "M" (metadata), and
 * all but metadata have a name, an integer pid and a non-negative
 * integer ts; spans have dur >= 1 and cat warp, rayhw or fleet; every pid emitting spans or counters has a process_name and
 * every span (pid, tid) a thread_name; each (pid, name) counter track
 * is in non-decreasing ts order; and in the "timeline" process every
 * issue_slots sample has a work sample at the same ts.
 */
std::string
traceProblem(const Json &document, TraceSummary *summary)
{
    const Json *other = document.find("otherData");
    if (!other || !isCount(other->find("dropped_events")))
        return "missing \"otherData.dropped_events\" count";
    const Json *events = document.find("traceEvents");
    if (!events || !events->isArray())
        return "missing \"traceEvents\" array";

    // Tracks are keyed by the dumped pid/tid/name values.
    const auto key = [](const Json &event, const char *field) {
        const Json *v = event.find(field);
        return v ? v->dump() : std::string("null");
    };
    std::map<std::string, std::string> processNames;
    std::set<std::pair<std::string, std::string>> threadNames, spanTracks;
    std::set<std::string> labelledPids;
    std::map<std::pair<std::string, std::string>, double> counterLastTs;
    std::set<double> slotWindows, workWindows;

    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &event = events->asArray()[i];
        const std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!event.isObject())
            return where + " is not an object";
        const std::string ph = stringField(event, "ph", "");
        if (ph != "M" && ph != "X" && ph != "C" && ph != "i")
            return where + ": unknown ph " + key(event, "ph");
        const std::string name = stringField(event, "name", "");
        const std::string pid = key(event, "pid");
        const Json *ts = event.find("ts");
        if (ph != "M") {
            if (!isInteger(event.find("pid")))
                return where + ": event needs integer pid";
            if (!isCount(ts))
                return where + ": event needs non-negative integer ts";
            if (name.empty())
                return where + ": event needs a name";
        }
        if (ph == "M") {
            const Json *args = event.find("args");
            const std::string label =
                args ? stringField(*args, "name", "") : "";
            if (name == "process_name")
                processNames[pid] = label;
            else if (name == "thread_name")
                threadNames.emplace(pid, key(event, "tid"));
            else
                return where + ": unknown metadata record " +
                       key(event, "name");
            if (label.empty())
                return where + ": metadata needs a non-empty args.name";
            ++summary->metadata;
        } else if (ph == "X") {
            if (!isInteger(event.find("tid")))
                return where + ": span needs integer tid";
            const Json *dur = event.find("dur");
            if (!isCount(dur) || dur->asDouble() < 1.0)
                return where + ": span needs dur >= 1";
            const std::string cat = stringField(event, "cat", "");
            if (cat != "warp" && cat != "rayhw" && cat != "fleet")
                return where + ": span cat must be warp, rayhw or fleet";
            spanTracks.emplace(pid, key(event, "tid"));
            labelledPids.insert(pid);
            ++summary->spans;
            ++summary->spanNames[name];
            summary->lastTs = std::max(summary->lastTs,
                                       ts->asDouble() + dur->asDouble());
        } else if (ph == "C") {
            const Json *args = event.find("args");
            if (!args || !args->isObject() || args->size() == 0)
                return where + ": counter needs a non-empty args object";
            for (const auto &[arg, value] : args->asObject())
                if (!isCount(&value))
                    return where + ": counter arg " + arg +
                           " must be a non-negative integer";
            labelledPids.insert(pid);
            const auto track = std::make_pair(pid, name);
            const auto last = counterLastTs.find(track);
            if (last != counterLastTs.end() && last->second > ts->asDouble())
                return where + ": counter track pid=" + pid + " name=" +
                       track.second + " not in non-decreasing ts order";
            counterLastTs[track] = ts->asDouble();
            if (const auto process = processNames.find(pid);
                process != processNames.end() &&
                process->second == "timeline") {
                if (name == "issue_slots")
                    slotWindows.insert(ts->asDouble());
                else if (name == "work")
                    workWindows.insert(ts->asDouble());
            }
            ++summary->counters;
        } else {
            ++summary->instants;
            ++summary->instantKinds[name.substr(0, name.find(' '))];
        }
    }

    for (const auto &[pid, tid] : spanTracks)
        if (!threadNames.count({pid, tid}))
            return "span track pid=" + pid + " tid=" + tid +
                   " has no thread_name";
    for (const std::string &pid : labelledPids)
        if (!processNames.count(pid))
            return "pid " + pid + " has no process_name";
    // Sampling on => issue_slots and work come in pairs per window.
    if (slotWindows != workWindows)
        return "timeline issue_slots and work samples are not paired (" +
               std::to_string(slotWindows.size()) + " vs " +
               std::to_string(workWindows.size()) + " windows)";
    return "";
}

/**
 * Check Chrome traces (obs::TraceCollector output or a merged fleet
 * trace) and summarize each: event counts, where the last span ends,
 * ring-wrap drops and the ten most frequent span names. With --count
 * NAME print only the total of instants whose name starts with the
 * word NAME ("worker_death w1 job 3" is a worker_death).
 */
int
runTrace(const Argv &argv)
{
    const auto args = parseArgs(argv, {"--count"});
    if (!args || args->positional.empty())
        return usage("trace");
    const bool counting = args->options.count("--count") != 0;
    std::uint64_t count = 0;
    int status = kOk;
    for (const std::string &path : args->positional) {
        std::string problem;
        const std::optional<Json> doc = loadJson(path, &problem);
        TraceSummary summary;
        if (doc)
            problem = doc->isObject() ? traceProblem(*doc, &summary)
                                      : "document is not an object";
        if (!problem.empty()) {
            std::fprintf(counting ? stderr : stdout, "FAIL %s: %s\n",
                         path.c_str(), problem.c_str());
            status = kRejected;
            continue;
        }
        if (counting) {
            count += summary.instantKinds[args->options.at("--count")];
            continue;
        }
        std::printf("ok   %s (%llu spans, %llu counter samples, %llu "
                    "instants, %llu metadata records; last span ends at ts "
                    "%.0f; %llu events dropped to ring wrap)\n",
                    path.c_str(), summary.spans, summary.counters,
                    summary.instants, summary.metadata, summary.lastTs,
                    static_cast<unsigned long long>(
                        uintField(*doc->find("otherData"), "dropped_events")));
        std::vector<std::pair<std::string, std::uint64_t>> top(
            summary.spanNames.begin(), summary.spanNames.end());
        std::stable_sort(top.begin(), top.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        drs::stats::Table table({"span", "count"});
        for (std::size_t i = 0; i < top.size() && i < 10; ++i)
            table.addRow({top[i].first, std::to_string(top[i].second)});
        if (table.numRows() != 0)
            table.print(std::cout);
    }
    if (counting && status == kOk)
        std::printf("%llu\n", static_cast<unsigned long long>(count));
    return status;
}

// ---------------------------------------------------------------------
// same

/**
 * Where @p a and @p b first differ ("" when equal), skipping every key
 * named in @p ignore: a bare key ("wall_seconds") at any depth, a
 * dotted path ("summary.sweep") only at that path from the root.
 * Objects compare as unordered maps, numbers by value.
 */
std::string
sameDifference(const Json &a, const Json &b, const std::string &path,
               const std::vector<std::string> &ignore)
{
    const auto skip = [&](const std::string &key, const std::string &at) {
        return std::find_if(ignore.begin(), ignore.end(),
                            [&](const std::string &name) {
                                return name == key || name == at;
                            }) != ignore.end();
    };
    const std::string here = path.empty() ? "the document root" : path;
    if (a.isObject() && b.isObject()) {
        const auto at = [&](const std::string &key) {
            return path.empty() ? key : path + "." + key;
        };
        for (const auto &[key, value] : a.asObject()) {
            if (skip(key, at(key)))
                continue;
            const Json *other = b.find(key);
            if (!other)
                return at(key) + " (only in the first)";
            if (std::string d = sameDifference(value, *other, at(key), ignore);
                !d.empty())
                return d;
        }
        for (const auto &[key, value] : b.asObject())
            if (!skip(key, at(key)) && !a.find(key))
                return at(key) + " (only in the second)";
        return "";
    }
    if (a.isArray() && b.isArray()) {
        if (a.size() != b.size())
            return here + " (array lengths differ)";
        for (std::size_t i = 0; i < a.size(); ++i)
            if (std::string d = sameDifference(
                    a.asArray()[i], b.asArray()[i],
                    path + "[" + std::to_string(i) + "]", ignore);
                !d.empty())
                return d;
        return "";
    }
    return a == b ? "" : here;
}

/**
 * Require two JSON documents to be equal once the keys in --ignore (a
 * comma-separated list, see sameDifference) are dropped.
 */
int
runSame(const Argv &argv)
{
    auto args = parseArgs(argv, {"--ignore"});
    if (!args || args->positional.size() != 2)
        return usage("same");
    std::vector<std::string> ignore;
    std::istringstream list(args->options["--ignore"]);
    for (std::string key; std::getline(list, key, ',');)
        ignore.push_back(key);
    const std::string &a = args->positional[0], &b = args->positional[1];
    const std::optional<Json> first = readDocument(a);
    const std::optional<Json> second = readDocument(b);
    if (!first || !second)
        return kUsage;
    const std::string difference = sameDifference(*first, *second, "", ignore);
    if (!difference.empty()) {
        std::printf("FAIL %s and %s differ at %s\n", a.c_str(), b.c_str(),
                    difference.c_str());
        return kRejected;
    }
    std::printf("ok   %s == %s%s%s\n", a.c_str(), b.c_str(),
                ignore.empty() ? "" : " ignoring ",
                args->options["--ignore"].c_str());
    return kOk;
}

// ---------------------------------------------------------------------
// compare

/** Report metrics and whether higher is better (else lower is). */
constexpr std::pair<const char *, bool> kMetrics[] = {
    {"simd_efficiency", true},      {"mrays_per_s", true},
    {"speedup_vs_aila", true},      {"l1d_hit_rate", true},
    {"l1t_hit_rate", true},         {"l2_hit_rate", true},
    {"cycles", false},              {"rdctrl_stall_rate", false},
    {"rdctrl_stall_cycles", false}, {"spawn_conflict_cycles", false},
};

/**
 * The BENCH_*.json reports of @p dir by file name; nullopt (with the
 * reason printed) when the directory or a report cannot be read.
 */
std::optional<std::map<std::string, Json>>
loadReportDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code error;
    if (!fs::is_directory(dir, error)) {
        std::fprintf(stderr, "drs_inspect: %s is not a directory\n",
                     dir.c_str());
        return std::nullopt;
    }
    std::map<std::string, Json> reports;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) != 0 || name.size() < 11 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        std::optional<Json> document = readDocument(entry.path().string());
        if (document && !document->isObject())
            std::fprintf(stderr, "drs_inspect: %s is not a JSON object\n",
                         entry.path().c_str());
        if (!document || !document->isObject())
            return std::nullopt;
        reports.emplace(name, std::move(*document));
    }
    return reports;
}

/** A result row's identity: its scene, arch, config and bounce. */
using RowKey = std::array<std::string, 4>;

RowKey
rowKey(const Json &row)
{
    RowKey key;
    const char *fields[] = {"scene", "arch", "config", "bounce"};
    for (std::size_t i = 0; i < key.size(); ++i)
        if (const Json *v = row.find(fields[i]))
            key[i] = v->isString() ? v->asString() : v->dump();
    return key;
}

/** "scene/arch/config/bounce", empty parts left out. */
std::string
describe(const RowKey &key)
{
    std::string text;
    for (const std::string &part : key)
        if (!part.empty())
            text += (text.empty() ? "" : "/") + part;
    return text.empty() ? "<unnamed row>" : text;
}

/**
 * Append the regressions of one report pair to @p problems; @return
 * the number of rows compared.
 */
std::size_t
compareReport(const std::string &name, const Json &baseline,
              const Json &current, double tolerance,
              std::vector<std::string> &problems)
{
    for (const auto &[doc, side] :
         {std::pair{&baseline, "baseline"}, std::pair{&current, "current"}})
        if (const Json *degraded = doc->find("degraded");
            degraded && degraded->isBool() && degraded->asBool()) {
            problems.push_back(name + ": " + side +
                               " report is degraded (quarantined jobs) and "
                               "not comparable");
            return 0;
        }
    const Json null;
    const Json *baseScale = baseline.find("scale");
    const Json *curScale = current.find("scale");
    if (!sameDifference(baseScale ? *baseScale : null,
                        curScale ? *curScale : null, "", {})
             .empty()) {
        problems.push_back(
            name + ": experiment scales differ — baseline " +
            (baseScale ? *baseScale : null).dump() + " vs current " +
            (curScale ? *curScale : null).dump() +
            "; regenerate the baseline at the same "
            "DRS_RAYS/DRS_SCALE/DRS_SMX");
        return 0;
    }

    // Rows by identity; a later duplicate replaces an earlier one.
    const auto indexRows = [](const Json &doc) {
        std::map<RowKey, const Json *> rows;
        if (const Json *results = doc.find("results");
            results && results->isArray())
            for (const Json &row : results->asArray())
                rows[rowKey(row)] = &row;
        return rows;
    };
    const auto baseRows = indexRows(baseline);
    const auto curRows = indexRows(current);
    for (const auto &[key, row] : baseRows)
        if (!curRows.count(key))
            problems.push_back(name + ": row " + describe(key) +
                               " missing from current report");

    std::size_t compared = 0;
    for (const auto &[key, cur] : curRows) {
        const auto base = baseRows.find(key);
        if (base == baseRows.end())
            continue; // new rows are additions, not regressions
        ++compared;
        for (const auto &[metric, higherIsBetter] : kMetrics) {
            const Json *b = base->second->find(metric);
            const Json *c = cur->find(metric);
            if (!b || !c || !b->isNumber() || !c->isNumber())
                continue;
            const double limit =
                b->asDouble() *
                (higherIsBetter ? 1.0 - tolerance : 1.0 + tolerance);
            if (higherIsBetter ? c->asDouble() >= limit
                               : c->asDouble() <= limit)
                continue;
            char text[256];
            std::snprintf(text, sizeof text,
                          "%s = %g is %s the tolerated %g (baseline %g, "
                          "tolerance %.1f%%)",
                          metric, c->asDouble(),
                          higherIsBetter ? "below" : "above", limit,
                          b->asDouble(), tolerance * 100.0);
            problems.push_back(name + ": " + describe(key) + ": " + text);
        }
    }
    return compared;
}

/**
 * Compare the BENCH_*.json reports of a baseline and a current
 * directory: reports pair by file name, rows by (scene, arch, config,
 * bounce), and each metric in kMetrics fails only in its worse
 * direction beyond --tolerance (relative, default 0.02). Degraded
 * reports, scale mismatches, missing rows, a report on one side only
 * and regressions are all rejections. Wall-clock fields are never
 * compared.
 */
int
runCompare(const Argv &argv)
{
    const auto args = parseArgs(argv, {"--tolerance"});
    if (!args || args->positional.size() != 2)
        return usage("compare");
    double tolerance = 0.02;
    if (args->options.count("--tolerance")) {
        const auto v = drs::obs::parseReal(
            args->options.at("--tolerance"), 0.0,
            std::numeric_limits<double>::max());
        if (!v)
            return usage("compare");
        tolerance = *v;
    }
    const std::string &baseDir = args->positional[0];
    const std::string &curDir = args->positional[1];
    const auto baseline = loadReportDir(baseDir);
    const auto current = loadReportDir(curDir);
    if (!baseline || !current)
        return kRejected;
    if (baseline->empty()) {
        std::fprintf(stderr, "drs_inspect: no BENCH_*.json reports in %s\n",
                     baseDir.c_str());
        return kUsage;
    }

    std::vector<std::string> problems;
    std::size_t rows = 0, reports = 0;
    for (const auto &[name, base] : *baseline) {
        const auto cur = current->find(name);
        if (cur == current->end()) {
            problems.push_back(name + ": present in baseline but missing " +
                               "from " + curDir);
            continue;
        }
        ++reports;
        rows += compareReport(name, base, cur->second, tolerance, problems);
    }
    for (const auto &[name, cur] : *current)
        if (!baseline->count(name))
            problems.push_back(name + ": present in " + curDir +
                               " but has no baseline in " + baseDir);

    if (!problems.empty()) {
        std::printf("compare: %zu problem(s) against %s:\n", problems.size(),
                    baseDir.c_str());
        for (const std::string &problem : problems)
            std::printf("  REGRESSION: %s\n", problem.c_str());
        return kRejected;
    }
    std::printf("compare: OK — %zu rows across %zu reports within %.1f%% of "
                "%s\n",
                rows, reports, tolerance * 100.0, baseDir.c_str());
    return kOk;
}

// ---------------------------------------------------------------------
// get

/** Print the scalar at a dotted object path (strings unquoted). */
int
runGet(const Argv &argv)
{
    const auto args = parseArgs(argv, {});
    if (!args || args->positional.size() != 2)
        return usage("get");
    const std::string &path = args->positional[0];
    const std::string &at = args->positional[1];
    const std::optional<Json> document = readDocument(path);
    if (!document)
        return kUsage;
    const Json *value = &*document;
    std::istringstream keys(at);
    for (std::string key; value && std::getline(keys, key, '.');)
        value = value->find(key);
    if (!value || value->isObject() || value->isArray()) {
        std::fprintf(stderr, "drs_inspect: %s has no scalar at %s\n",
                     path.c_str(), at.c_str());
        return kRejected;
    }
    std::printf("%s\n", value->isString() ? value->asString().c_str()
                                          : value->dump().c_str());
    return kOk;
}

// ---------------------------------------------------------------------
// Usage table and dispatch

struct Command
{
    const char *name;
    const char *synopsis;
    const char *summary;
    int (*run)(const Argv &);
};

constexpr Command kCommands[] = {
    {"validate", "[--expect-fail] REPORT...",
     "bench-report schema check (--expect-fail: every file must fail)",
     runValidate},
    {"journal", "JOURNAL [--expect N]",
     "sweep-journal audit: every job once, at most a torn tail", runJournal},
    {"events", "[--count SUBSYSTEM.EVENT] LOG.jsonl...",
     "event-log counts, supervision timeline, slowest jobs", runEvents},
    {"merge", "-o MERGED.json SHARD...",
     "stitch fleet trace shards into one trace", runMerge},
    {"profile", "[--top N] REPORT...",
     "issue-slot, phase, hot-block tables and timelines", runProfile},
    {"trace", "[--count NAME] TRACE.json...",
     "Chrome-trace rules and summary (--count: instants named NAME)",
     runTrace},
    {"compare", "BASELINE_DIR CURRENT_DIR [--tolerance REL]",
     "regression compare of two report directories", runCompare},
    {"same", "[--ignore KEY,...] A.json B.json",
     "equal once KEYs (bare: any depth; a.b: from the root) are dropped",
     runSame},
    {"get", "FILE DOTTED.PATH", "print one scalar of a JSON document",
     runGet},
};

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "usage: drs_inspect COMMAND ARGS...\n\n");
    for (const Command &c : kCommands)
        std::fprintf(out, "  %s %s\n      %s\n", c.name, c.synopsis,
                     c.summary);
    std::fprintf(out, "\nexit status: 0 = ok, 1 = rejected, 2 = usage or "
                      "I/O error\n");
}

int
usage(std::string_view command)
{
    for (const Command &c : kCommands)
        if (command == c.name)
            std::fprintf(stderr, "usage: drs_inspect %s %s\n", c.name,
                         c.synopsis);
    return kUsage;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "--help" || command == "-h") {
        printUsage(stdout);
        return kOk;
    }
    for (const Command &c : kCommands)
        if (command == c.name)
            return c.run(Argv(argv + 2, argv + argc));
    if (!command.empty())
        std::fprintf(stderr, "drs_inspect: unknown command '%s'\n\n",
                     command.c_str());
    printUsage(stderr);
    return kUsage;
}
