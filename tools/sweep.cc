/**
 * @file
 * Parallel sweep CLI: run a named preset of the paper's result grid on
 * the worker-pool sweep engine and emit a structured JSON report.
 *
 *   sweep --preset table3 [--threads N] [--out report.json]
 *         [--warmup N] [--measure N] [--no-timing]
 *         [--checkpoints DIR] [--checkpoint-salt TAG] [--quiet]
 *   sweep --list
 *
 * Per-run metrics are bit-identical for every --threads value: each
 * run point's workload RNG is seeded from its (benchmark, config)
 * pair, independent of scheduling order. The report logs total wall
 * clock, the serial-equivalent cpu time, and the observed speedup;
 * --no-timing drops those fields so the whole report file is
 * byte-identical across thread counts (CI diffs them).
 *
 * With --checkpoints, post-warmup machine states persist in a
 * warmup-checkpoint store: a second run of the same preset restores
 * each point's warmup from disk instead of re-simulating it, with
 * byte-identical reports (docs/PERF.md, "Warmup checkpoints").
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/parse.hh"
#include "sim/checkpoint.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace clustersim;

namespace {

int
usage(const char *prog, int code)
{
    std::fprintf(stderr,
                 "usage: %s --preset NAME [options]\n"
                 "       %s --list\n"
                 "\n"
                 "options:\n"
                 "  --preset NAME   sweep to run (see --list)\n"
                 "  --threads N     worker threads (default: hardware "
                 "concurrency)\n"
                 "  --jobs N        alias for --threads\n"
                 "  --out FILE      JSON report path (default: "
                 "sweep-NAME.json; '-' = stdout)\n"
                 "  --warmup N      warmup instructions per run "
                 "(default: preset)\n"
                 "  --measure N     measured instructions per run "
                 "(default: preset)\n"
                 "  --no-timing     omit wall-clock fields from the "
                 "report (byte-identical across thread counts)\n"
                 "  --checkpoints DIR\n"
                 "                  warmup-checkpoint store directory "
                 "(default: none = warm starts off)\n"
                 "  --checkpoint-salt TAG\n"
                 "                  checkpoint version salt (default: "
                 "%s)\n"
                 "  --quiet         no per-run progress on stderr\n",
                 prog, prog, defaultCheckpointSalt);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string preset;
    std::string out_path;
    int threads = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    bool include_timing = true;
    bool quiet = false;
    std::string ckpt_dir;
    std::string ckpt_salt = defaultCheckpointSalt;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", flag);
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--list") {
            for (const std::string &n : sweepPresetNames())
                std::printf("%s (%zu run points)\n", n.c_str(),
                            makeSweepPreset(n).size());
            return 0;
        } else if (arg == "--preset") {
            preset = need("--preset");
        } else if (arg == "--threads") {
            threads = flagNumber("--threads", need("--threads"),
                                 maxThreadsFlag);
        } else if (arg == "--jobs") {
            threads =
                flagNumber("--jobs", need("--jobs"), maxThreadsFlag);
        } else if (arg == "--out") {
            out_path = need("--out");
        } else if (arg == "--warmup") {
            warmup = flagNumber<std::uint64_t>("--warmup", need("--warmup"));
        } else if (arg == "--measure") {
            measure =
                flagNumber<std::uint64_t>("--measure", need("--measure"));
        } else if (arg == "--no-timing") {
            include_timing = false;
        } else if (arg == "--checkpoints") {
            ckpt_dir = need("--checkpoints");
        } else if (arg == "--checkpoint-salt") {
            ckpt_salt = need("--checkpoint-salt");
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (preset.empty())
        return usage(argv[0], 2);
    bool known = false;
    for (const std::string &n : sweepPresetNames())
        known = known || n == preset;
    if (!known) {
        std::fprintf(stderr, "unknown preset '%s'; try --list\n",
                     preset.c_str());
        return 2;
    }
    if (out_path.empty())
        out_path = "sweep-" + preset + ".json";

    std::vector<RunPoint> points =
        makeSweepPreset(preset, warmup, measure);

    SweepOptions opts;
    opts.threads = threads;
    WarmupCheckpointStore checkpoints(ckpt_dir, ckpt_salt);
    if (checkpoints.enabled())
        opts.checkpoints = &checkpoints;
    std::size_t done = 0;
    if (!quiet) {
        opts.onComplete = [&done, &points](std::size_t,
                                           const SimResult &r) {
            done++;
            std::fprintf(stderr, "  [%3zu/%3zu] %-8s %-24s IPC %.3f\n",
                         done, points.size(), r.benchmark.c_str(),
                         r.config.c_str(), r.ipc);
        };
    }

    SweepResult res = runSweep(points, opts);
    std::string report = sweepReportJson(preset, points, res,
                                         include_timing);

    if (out_path == "-") {
        std::printf("%s\n", report.c_str());
    } else {
        std::ofstream f(out_path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        f << report << "\n";
    }

    std::string dest = out_path == "-" ? "" : " -> " + out_path;
    std::fprintf(stderr,
                 "sweep '%s': %zu runs on %d thread(s), wall %.2fs, "
                 "cpu %.2fs, speedup %.2fx%s\n",
                 preset.c_str(), res.runs.size(), res.threads,
                 res.wallSeconds, res.cpuSeconds(), res.speedup(),
                 dest.c_str());
    if (checkpoints.enabled()) {
        CheckpointStats ks = checkpoints.stats();
        std::size_t warm = 0;
        for (const SweepRun &r : res.runs)
            warm += r.warmStart ? 1 : 0;
        std::fprintf(stderr,
                     "sweep: warm starts %zu/%zu (checkpoint hits %llu "
                     "misses %llu stores %llu)\n",
                     warm, res.runs.size(),
                     static_cast<unsigned long long>(ks.hits),
                     static_cast<unsigned long long>(ks.misses),
                     static_cast<unsigned long long>(ks.stores));
    }
    return 0;
}
