/**
 * @file
 * Golden-run differential CLI: execute the fixed golden run set and
 * diff its report against the snapshot checked into tests/golden/.
 *
 *   golden [--check] [--report FILE] [--dir DIR] [--threads N] [--quiet]
 *   golden --update [--dir DIR] [--threads N] [--quiet]
 *
 * --check (the default) exits 0 when the fresh report matches the
 * snapshot under the tolerance rules and 1 with a per-path diff
 * otherwise; --report additionally writes the diff to a file for CI
 * artifacts. --update rewrites the snapshot after an intentional
 * behaviour change. See docs/TESTING.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/golden.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/sweep.hh"

#ifndef CLUSTERSIM_GOLDEN_DIR
#define CLUSTERSIM_GOLDEN_DIR "tests/golden"
#endif

using namespace clustersim;

namespace {

int
usage(const char *prog, int code)
{
    std::fprintf(stderr,
                 "usage: %s [--check|--update] [options]\n"
                 "\n"
                 "modes:\n"
                 "  --check         run the golden set and diff against "
                 "the snapshot (default)\n"
                 "  --update        run the golden set and rewrite the "
                 "snapshot\n"
                 "\n"
                 "options:\n"
                 "  --dir DIR       golden snapshot directory (default: "
                 "%s)\n"
                 "  --report FILE   also write the diff report to FILE "
                 "(--check only)\n"
                 "  --threads N     worker threads (default: hardware "
                 "concurrency)\n"
                 "  --quiet         no per-run progress on stderr\n",
                 prog, CLUSTERSIM_GOLDEN_DIR);
    return code;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool update = false;
    std::string dir = CLUSTERSIM_GOLDEN_DIR;
    std::string report_path;
    int threads = 0;
    bool quiet = false;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", flag);
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--check") {
            update = false;
        } else if (arg == "--update") {
            update = true;
        } else if (arg == "--dir") {
            dir = need("--dir");
        } else if (arg == "--report") {
            report_path = need("--report");
        } else if (arg == "--threads") {
            threads = flagNumber("--threads", need("--threads"),
                                 maxThreadsFlag);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    std::string golden_path = dir + "/" + goldenFileName();

    std::vector<RunPoint> points = goldenRunPoints();

    SweepOptions opts;
    opts.threads = threads;
    std::size_t done = 0;
    if (!quiet) {
        opts.onComplete = [&done, &points](std::size_t,
                                           const SimResult &r) {
            done++;
            std::fprintf(stderr, "  [%2zu/%2zu] %-8s %-20s IPC %.3f\n",
                         done, points.size(), r.benchmark.c_str(),
                         r.config.c_str(), r.ipc);
        };
    }

    SweepResult res = runSweep(points, opts);
    std::string fresh = goldenReportJson(points, res);

    if (update) {
        std::ofstream f(golden_path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         golden_path.c_str());
            return 1;
        }
        f << fresh << "\n";
        std::fprintf(stderr, "golden: wrote %zu runs -> %s\n",
                     res.runs.size(), golden_path.c_str());
        return 0;
    }

    std::string snapshot;
    if (!readFile(golden_path, snapshot)) {
        std::fprintf(stderr,
                     "golden: cannot read %s\n"
                     "        (run `golden --update` to create it)\n",
                     golden_path.c_str());
        return 1;
    }

    std::vector<GoldenDiff> diffs;
    try {
        diffs = diffGoldenReports(parseJson(snapshot), parseJson(fresh));
    } catch (const SimError &e) {
        std::fprintf(stderr, "golden: %s\n", e.what());
        return 1;
    }

    if (!report_path.empty()) {
        std::ofstream f(report_path, std::ios::binary);
        if (f) {
            if (diffs.empty())
                f << "golden: " << res.runs.size()
                  << " runs match " << golden_path << "\n";
            else
                f << formatGoldenDiffs(diffs);
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         report_path.c_str());
        }
    }

    if (diffs.empty()) {
        std::fprintf(stderr, "golden: %zu runs match %s\n",
                     res.runs.size(), golden_path.c_str());
        return 0;
    }

    std::fprintf(stderr, "golden: %zu difference(s) vs %s\n",
                 diffs.size(), golden_path.c_str());
    std::fputs(formatGoldenDiffs(diffs).c_str(), stderr);
    std::fprintf(stderr,
                 "golden: if the change is intentional, refresh the "
                 "snapshot with `golden --update`\n");
    return 1;
}
