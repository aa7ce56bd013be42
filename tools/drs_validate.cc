/**
 * @file
 * Bench-report schema checker: applies obs::validateBenchReport, the
 * rules every bench runs before writing its report, to report files.
 * Google Benchmark output (a top-level "benchmarks" key) only has to be
 * well-formed JSON. With --expect-fail every file must be rejected.
 *
 * Usage: drs_validate [--expect-fail] FILE...
 * Prints one "ok"/"FAIL" line per file. Exit status: 0 = every file met
 * the expectation, 1 = some did not, 2 = usage error.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/report.h"

int
main(int argc, char **argv)
{
    const bool expect_fail =
        argc > 1 && std::string(argv[1]) == "--expect-fail";
    const int first = expect_fail ? 2 : 1;
    if (first >= argc) {
        std::fprintf(stderr, "usage: drs_validate [--expect-fail] FILE...\n");
        return 2;
    }
    int passes = 0;
    for (int i = first; i < argc; ++i) {
        std::ifstream in(argv[i], std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        std::string reason = in ? "" : "cannot open file";
        std::optional<drs::obs::Json> document;
        if (in)
            document = drs::obs::Json::parse(text.str(), &reason);
        if (document && !document->find("benchmarks"))
            reason = drs::obs::validateBenchReport(*document);
        const drs::obs::Json *rows = document ? document->find("results")
                                              : nullptr;
        if (reason.empty()) {
            std::printf("ok   %s (%zu result rows)\n", argv[i],
                        rows ? rows->size() : 0);
            ++passes;
        } else {
            std::printf("FAIL %s: %s\n", argv[i], reason.c_str());
        }
    }
    const int total = argc - first;
    return (expect_fail ? passes == 0 : passes == total) ? 0 : 1;
}
