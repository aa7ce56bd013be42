/**
 * @file
 * Offline profile analyzer: turns the schema-v3+ bench reports (and
 * optionally a Chrome trace) into human-readable profiles — per-row
 * issue-slot stall breakdowns, traversal-phase splits, timeline
 * sparklines and hottest-block tables.
 *
 * Usage:
 *   drs_profile BENCH_report.json [more.json ...] [--top N] [--trace T.json]
 *
 * Reports without profiler sections (runs without DRS_SAMPLE) still list
 * their rows, so the tool doubles as a quick report inspector. Exits
 * non-zero on unreadable/invalid input.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/env.h"
#include "obs/json.h"
#include "obs/report.h"
#include "stats/table.h"

namespace {

using drs::obs::Json;

std::optional<Json>
loadJson(const std::string &path, std::string *why)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *why = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    std::optional<Json> doc = Json::parse(buffer.str(), &error);
    if (!doc)
        *why = path + ": " + error;
    return doc;
}

std::string
stringField(const Json &row, const char *key, const char *fallback = "-")
{
    const Json *v = row.find(key);
    return v && v->isString() ? v->asString() : std::string(fallback);
}

double
numberField(const Json &row, const char *key, double fallback = 0.0)
{
    const Json *v = row.find(key);
    return v && v->isNumber() ? v->asDouble() : fallback;
}

/** Identity columns shared by every per-row table. */
std::vector<std::string>
rowIdentity(const Json &row)
{
    return {stringField(row, "scene"), stringField(row, "arch"),
            stringField(row, "config"), stringField(row, "bounce")};
}

/**
 * Unicode sparkline of @p values scaled to their own maximum (all-zero
 * series render flat).
 */
std::string
sparkline(const std::vector<double> &values)
{
    static const char *kLevels[] = {"▁", "▂", "▃", "▄",
                                    "▅", "▆", "▇", "█"};
    double max = 0.0;
    for (double v : values)
        max = std::max(max, v);
    std::string out;
    for (double v : values) {
        int level = 0;
        if (max > 0.0)
            level = std::min(7, static_cast<int>(v / max * 7.999));
        out += kLevels[level];
    }
    return out;
}

const char *kBucketOrder[] = {"issued_full",       "issued_partial",
                              "stalled_rdctrl",    "stalled_memory",
                              "stalled_scoreboard", "no_ready_warp",
                              "drained"};
const char *kPhaseOrder[] = {"fetch", "inner", "leaf", "none"};

void
printAttributionTables(const Json &results, std::size_t top_k)
{
    drs::stats::Table slots({"scene", "arch", "config", "bounce",
                             "issued_full", "issued_partial",
                             "stalled_rdctrl", "stalled_memory",
                             "stalled_scoreboard", "no_ready_warp",
                             "drained"});
    drs::stats::Table phases({"scene", "arch", "config", "bounce", "fetch",
                              "inner", "leaf", "none"});
    for (const Json &row : results.asArray()) {
        const Json *attribution = row.find("attribution");
        if (!attribution)
            continue;
        const Json *buckets = attribution->find("buckets");
        const double total = numberField(*attribution, "total_slots");
        if (!buckets || total <= 0.0)
            continue;

        std::vector<std::string> slot_row = rowIdentity(row);
        for (const char *name : kBucketOrder) {
            double count = 0.0;
            if (const Json *bucket = buckets->find(name))
                count = numberField(*bucket, "total");
            slot_row.push_back(drs::stats::formatPercent(count / total));
        }
        slots.addRow(std::move(slot_row));

        // Phase split of the issued slots only: where the machine spent
        // the work it actually did.
        std::map<std::string, double> phase_slots;
        double issued = 0.0;
        for (const char *name : {"issued_full", "issued_partial"}) {
            const Json *bucket = buckets->find(name);
            if (!bucket)
                continue;
            for (const char *phase : kPhaseOrder) {
                const double count = numberField(*bucket, phase);
                phase_slots[phase] += count;
                issued += count;
            }
        }
        std::vector<std::string> phase_row = rowIdentity(row);
        for (const char *phase : kPhaseOrder)
            phase_row.push_back(drs::stats::formatPercent(
                issued > 0.0 ? phase_slots[phase] / issued : 0.0));
        phases.addRow(std::move(phase_row));
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

    drs::stats::Table blocks({"scene", "arch", "config", "bounce", "block",
                              "issues", "avg active"});
    for (const Json &row : results.asArray()) {
        const Json *attribution = row.find("attribution");
        const Json *list = attribution ? attribution->find("blocks") : nullptr;
        if (!list || !list->isArray())
            continue;
        std::size_t shown = 0;
        for (const Json &block : list->asArray()) {
            if (shown++ == top_k)
                break;
            const double issues = numberField(block, "issues");
            const double active = numberField(block, "active_threads");
            std::vector<std::string> block_row = rowIdentity(row);
            block_row.push_back(stringField(block, "name"));
            block_row.push_back(
                std::to_string(static_cast<unsigned long long>(issues)));
            block_row.push_back(drs::stats::formatDouble(
                issues > 0.0 ? active / issues : 0.0, 1));
            blocks.addRow(std::move(block_row));
        }
    }
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
        if (!frames || !frames->isArray() || frames->asArray().empty())
            continue;
        any = true;

        std::vector<double> efficiency;
        std::vector<double> stalled;
        for (const Json &frame : frames->asArray()) {
            efficiency.push_back(numberField(frame, "simd_efficiency"));
            double lost = 0.0, total = 0.0;
            if (const Json *slots = frame.find("slots")) {
                for (const auto &[name, value] : slots->asObject()) {
                    total += value.asDouble();
                    if (std::strncmp(name.c_str(), "issued", 6) != 0)
                        lost += value.asDouble();
                }
            }
            stalled.push_back(total > 0.0 ? lost / total : 0.0);
        }
        std::cout << stringField(row, "scene") << "/"
                  << stringField(row, "arch");
        if (const Json *config = row.find("config"))
            std::cout << "/" << config->asString();
        if (const Json *bounce = row.find("bounce"))
            std::cout << " " << bounce->asString();
        std::cout << "  (" << frames->asArray().size() << " windows of "
                  << static_cast<unsigned long long>(
                         numberField(*timeline, "interval"))
                  << " cycles)\n";
        std::cout << "  simd eff   " << sparkline(efficiency) << "\n";
        std::cout << "  lost slots " << sparkline(stalled) << "\n";
    }
    if (any)
        std::cout << "\n";
}

int
profileReport(const std::string &path, std::size_t top_k)
{
    std::string why;
    std::optional<Json> doc = loadJson(path, &why);
    if (!doc) {
        std::fprintf(stderr, "drs_profile: %s\n", why.c_str());
        return 1;
    }
    if (std::string problem = drs::obs::validateBenchReport(*doc);
        !problem.empty()) {
        std::fprintf(stderr, "drs_profile: %s: %s\n", path.c_str(),
                     problem.c_str());
        return 1;
    }

    std::cout << "==== " << doc->find("bench")->asString() << " (" << path
              << ") ====\n";
    if (const Json *degraded = doc->find("degraded");
        degraded && degraded->asBool())
        std::cout << "WARNING: degraded report (quarantined jobs) — "
                     "numbers are incomplete\n";
    if (const Json *scale = doc->find("scale"); scale && scale->isObject()) {
        std::cout << "scale:";
        for (const auto &[key, value] : scale->asObject())
            std::cout << " " << key << "=" << value.dump();
        std::cout << "\n";
    }
    std::cout << "\n";

    const Json *results = doc->find("results");
    printAttributionTables(*results, top_k);
    printTimelines(*results);
    return 0;
}

int
summarizeTrace(const std::string &path)
{
    std::string why;
    std::optional<Json> doc = loadJson(path, &why);
    if (!doc) {
        std::fprintf(stderr, "drs_profile: %s\n", why.c_str());
        return 1;
    }
    const Json *events = doc->find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr, "drs_profile: %s: no traceEvents array\n",
                     path.c_str());
        return 1;
    }
    std::map<std::string, std::uint64_t> by_name;
    std::uint64_t spans = 0, counters = 0, metadata = 0;
    double last_ts = 0.0;
    for (const Json &event : events->asArray()) {
        const std::string ph = stringField(event, "ph");
        if (ph == "X") {
            ++spans;
            ++by_name[stringField(event, "name")];
            last_ts = std::max(last_ts, numberField(event, "ts") +
                                            numberField(event, "dur"));
        } else if (ph == "C") {
            ++counters;
        } else if (ph == "M") {
            ++metadata;
        }
    }
    std::cout << "==== trace " << path << " ====\n"
              << spans << " spans, " << counters << " counter samples, "
              << metadata << " metadata records, last cycle "
              << static_cast<unsigned long long>(last_ts) << "\n";
    if (const Json *other = doc->find("otherData"))
        if (const Json *dropped = other->find("dropped_events"))
            std::cout << "events dropped to ring wrap: "
                      << dropped->asUint() << "\n";

    std::vector<std::pair<std::string, std::uint64_t>> top(by_name.begin(),
                                                           by_name.end());
    std::stable_sort(top.begin(), top.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    drs::stats::Table table({"span", "count"});
    for (std::size_t i = 0; i < top.size() && i < 10; ++i)
        table.addRow({top[i].first, std::to_string(top[i].second)});
    if (table.numRows() != 0)
        table.print(std::cout);
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> reports;
    std::vector<std::string> traces;
    std::size_t top_k = 8;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace" && i + 1 < argc) {
            traces.push_back(argv[++i]);
        } else if (arg == "--top" && i + 1 < argc) {
            const auto v = drs::obs::parseInt(argv[++i], 1, LLONG_MAX);
            if (!v) {
                std::fprintf(stderr, "drs_profile: bad --top %s\n", argv[i]);
                return 2;
            }
            top_k = static_cast<std::size_t>(*v);
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: drs_profile BENCH_report.json [...] "
                         "[--top N] [--trace trace.json]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "drs_profile: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            reports.push_back(arg);
        }
    }
    if (reports.empty() && traces.empty()) {
        std::fprintf(stderr,
                     "usage: drs_profile BENCH_report.json [...] "
                     "[--top N] [--trace trace.json]\n");
        return 2;
    }

    int status = 0;
    for (const std::string &path : reports)
        status = std::max(status, profileReport(path, top_k));
    for (const std::string &path : traces)
        status = std::max(status, summarizeTrace(path));
    return status;
}
