/**
 * @file
 * Table 4 reproduction: instability factor per interval length, and
 * the minimum interval length with instability below 5%, for every
 * benchmark. Statistics are collected at a 1K-instruction base
 * granularity on the 16-cluster machine, then aggregated offline
 * exactly as Section 4.1 describes (three-metric phase test).
 *
 * Run lengths (and hence phase structure) are ~10x shorter than the
 * paper's, so the interval ladder tops out lower; the *ordering* --
 * swim/mgrid/galgel/gzip stable at 10K, cjpeg at ~40K, crafty/vpr at
 * ~320K, djpeg needing more, parser needing more than any window we
 * simulate -- is the reproduction target.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/table.hh"
#include "sim/phase_stats.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "workload/benchmarks.hh"

using namespace clustersim;

namespace {

struct PaperRow {
    const char *name;
    const char *minInterval;
    const char *at10k;
};

constexpr PaperRow paperRows[] = {
    {"cjpeg", "40K/4%", "9%"},    {"crafty", "320K/4%", "30%"},
    {"djpeg", "1280K/1%", "31%"}, {"galgel", "10K/1%", "1%"},
    {"gzip", "10K/4%", "4%"},     {"mgrid", "10K/0%", "0%"},
    {"parser", "40M/5%", "12%"},  {"swim", "10K/0%", "0%"},
    {"vpr", "320K/5%", "14%"},
};

} // namespace

/** Usage: bench_table4 [measured-instructions-per-benchmark] */
int
main(int argc, char **argv)
{
    std::uint64_t insts =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000000;
    std::printf("Table 4 -- instability factors for different interval "
                "lengths (collected at 16 clusters)\n"
                "measured instructions per run: %llu (paper windows are "
                "~10x longer)\n\n",
                static_cast<unsigned long long>(insts));

    const std::vector<std::uint64_t> ladder = {
        10000, 20000, 40000, 80000, 160000, 320000, 640000, 1280000};

    Table t({"benchmark", "10K", "40K", "160K", "320K", "1280K",
             "min stable", "paper min", "paper@10K"});

    for (const PaperRow &row : paperRows) {
        IntervalStatsCollector collector(16, 1000);
        runSimulation(clusteredConfig(16), makeBenchmark(row.name),
                      &collector, defaultWarmup, insts);
        const auto &samples = collector.samples();

        std::size_t dropped = 0;
        auto factor = [&](std::uint64_t len) {
            if (samples.size() / (len / 1000) < 4)
                return std::numeric_limits<double>::quiet_NaN();
            std::size_t d = 0;
            double f = instabilityFactor(samples, 1000, len, 0.10,
                                         100.0, &d);
            dropped = std::max(dropped, d);
            return f;
        };
        auto cellOf = [&](std::uint64_t len) {
            double f = factor(len);
            // NaN: too few whole intervals at this length to judge.
            if (std::isnan(f))
                return std::string("-");
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%.0f%%", f * 100);
            return std::string(buf);
        };

        std::uint64_t min_stable =
            minimumStableInterval(samples, 1000, ladder);

        t.startRow();
        t.cell(row.name);
        t.cell(cellOf(10000));
        t.cell(cellOf(40000));
        t.cell(cellOf(160000));
        t.cell(cellOf(320000));
        t.cell(cellOf(1280000));
        t.cell(min_stable ? std::to_string(min_stable / 1000) + "K"
                          : std::string(">window"));
        t.cell(row.minInterval);
        t.cell(row.at10k);
        std::fprintf(stderr,
                     "  %-8s done (%zu samples, up to %zu trailing"
                     " samples excluded at the widest interval)\n",
                     row.name, samples.size(), dropped);
    }

    std::printf("%s\n", t.format().c_str());
    std::printf("'-' = too few intervals in the simulated window;"
                " '>window' = no ladder entry was stable (the paper's"
                " parser needed 40M).\n");
    return 0;
}
