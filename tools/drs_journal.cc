/**
 * @file
 * Sweep-journal inspector and verifier. The sweep runner and the fleet
 * coordinator both persist one fsync'd JSONL record per finished job
 * (harness::sweepResultToJson); this tool audits such a journal:
 *
 *   - every line must parse as a well-formed record (a single torn
 *     line at the end of the file is tolerated — that is the expected
 *     debris of a crash mid-append — but torn lines anywhere else are
 *     an error);
 *   - no job index may appear twice — neither as an exact (job, key)
 *     duplicate (some job was double-reported, which the fleet's
 *     drain-before-redispatch logic exists to prevent) nor as the same
 *     index under two different keys (two sweeps interleaved into one
 *     journal); both are hard failures;
 *   - with --expect N, jobs 0..N-1 must all be present: nothing lost.
 *
 * Besides the verdict line the tool prints a per-job summary table
 * (attempts, wall-clock seconds, outcome) so a chaotic run's retry
 * behaviour can be read at a glance.
 *
 * Usage: drs_journal JOURNAL [--expect N]
 *
 * Exit status: 0 = journal verifies, 1 = verification failed,
 * 2 = usage / IO error. The chaos harness (tests/check_fleet_chaos.sh)
 * runs this after a kill → --resume cycle to prove the recovery
 * invariant: every job exactly once.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "harness/sweep.h"
#include "obs/env.h"
#include "obs/json.h"

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: drs_journal JOURNAL [--expect N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    long long expect = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--expect") {
            if (i + 1 >= argc)
                return usage();
            const auto v = drs::obs::parseInt(argv[++i], 0, LLONG_MAX);
            if (!v)
                return usage();
            expect = *v;
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage();
        }
    }
    if (path.empty())
        return usage();

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "drs_journal: cannot open %s\n", path.c_str());
        return 2;
    }

    // (job, key) -> line number of the first record, for duplicate
    // diagnostics.
    std::map<std::pair<std::uint64_t, std::string>, std::size_t> seen;
    // job index -> first record, for the summary table and the
    // same-index-different-key corruption check.
    struct JobRecord
    {
        std::string key;
        int attempts = 0;
        double seconds = 0.0;
        bool ran = false;
        bool failed = false;
        bool fromJournal = false;
    };
    std::map<std::uint64_t, JobRecord> byIndex;
    std::size_t records = 0;
    std::size_t failed = 0;
    std::size_t ran = 0;
    std::size_t torn = 0;
    std::size_t lineNumber = 0;
    std::string line;
    bool ok = true;
    while (std::getline(in, line)) {
        ++lineNumber;
        if (line.empty())
            continue;
        // A torn line that is NOT the last line means the journal was
        // appended past corruption — the writers never do that.
        if (torn > 0) {
            std::fprintf(stderr,
                         "drs_journal: line %zu follows a torn line — "
                         "journal corrupt beyond a crash tail\n",
                         lineNumber);
            ok = false;
        }
        std::string parseError;
        const auto entry = drs::obs::Json::parse(line, &parseError);
        std::uint64_t index = 0;
        std::string key;
        drs::harness::SweepResult result;
        const std::string reason =
            entry ? drs::harness::sweepResultFromJson(*entry, &index, &key,
                                                      &result)
                  : parseError;
        if (!reason.empty()) {
            // Tolerated if it stays the final line (crash mid-append).
            ++torn;
            continue;
        }
        ++records;
        ran += result.ran ? 1 : 0;
        failed += result.failed ? 1 : 0;
        const auto id = std::make_pair(index, key);
        const auto [it, inserted] = seen.emplace(id, lineNumber);
        if (!inserted) {
            std::fprintf(stderr,
                         "drs_journal: job %llu (%s) double-reported: "
                         "lines %zu and %zu\n",
                         static_cast<unsigned long long>(index), key.c_str(),
                         it->second, lineNumber);
            ok = false;
        }
        JobRecord record;
        record.key = key;
        record.attempts = result.attempts;
        record.seconds = result.seconds;
        record.ran = result.ran;
        record.failed = result.failed;
        record.fromJournal = result.fromJournal;
        const auto [jt, fresh] = byIndex.emplace(index, std::move(record));
        if (!fresh && jt->second.key != key) {
            std::fprintf(stderr,
                         "drs_journal: job %llu reported under two keys "
                         "(%s and %s) — journals interleaved?\n",
                         static_cast<unsigned long long>(index),
                         jt->second.key.c_str(), key.c_str());
            ok = false;
        }
    }
    if (torn > 1) {
        std::fprintf(stderr, "drs_journal: %zu torn lines (at most one — a "
                             "crash tail — is expected)\n",
                     torn);
        ok = false;
    }
    if (expect >= 0) {
        for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(expect); ++i) {
            bool present = false;
            for (const auto &[id, where] : seen)
                if (id.first == i) {
                    present = true;
                    break;
                }
            if (!present) {
                std::fprintf(stderr,
                             "drs_journal: job %llu missing (expected jobs "
                             "0..%lld)\n",
                             static_cast<unsigned long long>(i), expect - 1);
                ok = false;
            }
        }
        if (records != static_cast<std::size_t>(expect)) {
            std::fprintf(stderr,
                         "drs_journal: %zu records, expected exactly %lld\n",
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
            const char *outcome = record.failed       ? "quarantined"
                                  : record.fromJournal ? "replayed"
                                  : record.ran         ? "ok"
                                                       : "skipped";
            std::printf("%6llu  %-*s  %8d  %9.3f  %s%s\n",
                        static_cast<unsigned long long>(index),
                        static_cast<int>(keyWidth), record.key.c_str(),
                        record.attempts, record.seconds, outcome,
                        record.attempts > 1 && !record.failed
                            ? " (retried)"
                            : "");
        }
    }
    std::printf("journal %s: %zu records (%zu ran, %zu failed), %zu torn "
                "tail line%s, %zu distinct jobs — %s\n",
                path.c_str(), records, ran, failed, torn,
                torn == 1 ? "" : "s", seen.size(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
