/**
 * @file
 * Unit tests for the sim layer: presets, the run driver, the sweep
 * summary, phase statistics (Table 4 machinery), and the leakage
 * model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/energy.hh"
#include "sim/phase_stats.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"

using namespace clustersim;

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

TEST(Presets, ClusteredConfigShapes)
{
    ProcessorConfig c = clusteredConfig(8);
    EXPECT_EQ(c.numClusters, 8);
    EXPECT_FALSE(c.l1.decentralized);
    EXPECT_EQ(c.interconnect, InterconnectKind::Ring);

    ProcessorConfig d = clusteredConfig(16, InterconnectKind::Grid, true);
    EXPECT_TRUE(d.l1.decentralized);
    EXPECT_EQ(d.interconnect, InterconnectKind::Grid);
}

TEST(Presets, StaticSubsetKeepsSixteenHardwareClusters)
{
    ProcessorConfig c = staticSubsetConfig(4);
    EXPECT_EQ(c.numClusters, 16);
    EXPECT_EQ(c.activeClustersAtReset, 4);
}

TEST(Presets, MonolithicAggregatesResources)
{
    ProcessorConfig m = monolithicConfig(16);
    EXPECT_EQ(m.numClusters, 1);
    EXPECT_EQ(m.cluster.intRegs, 30 * 16);
    EXPECT_EQ(m.cluster.intIssueQueue, 15 * 16);
    EXPECT_EQ(m.cluster.intAlus, 16);
    EXPECT_TRUE(m.freeRegComm);
    EXPECT_TRUE(m.freeMemComm);
}

TEST(Presets, SensitivityVariants)
{
    EXPECT_EQ(fewerResourcesConfig().cluster.intRegs, 20);
    EXPECT_EQ(moreResourcesConfig().cluster.intRegs, 40);
    EXPECT_EQ(moreFusConfig().cluster.intAlus, 2);
    EXPECT_EQ(slowHopsConfig().hopLatency, 2u);
}

// ---------------------------------------------------------------------------
// runSimulation
// ---------------------------------------------------------------------------

TEST(Simulation, ProducesSaneResult)
{
    WorkloadSpec w = makeBenchmark("gzip");
    SimResult r = runSimulation(staticSubsetConfig(4), w, nullptr,
                                20000, 50000);
    EXPECT_EQ(r.benchmark, "gzip");
    EXPECT_GE(r.instructions, 50000u);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_LT(r.ipc, 16.0);
    EXPECT_GT(r.mispredictInterval, 5.0);
    EXPECT_GT(r.branchAccuracy, 0.5);
    EXPECT_NEAR(r.avgActiveClusters, 4.0, 0.01);
}

TEST(Simulation, ZeroMeasureWindowReturnsZeroedStats)
{
    // A zero-instruction measurement window must yield a well-formed
    // all-zero result (no division by a zero cycle count, no leftover
    // warmup statistics).
    WorkloadSpec w = makeBenchmark("gzip");
    SimResult r = runSimulation(staticSubsetConfig(4), w, nullptr,
                                5000, /*measure=*/0);
    EXPECT_EQ(r.benchmark, "gzip");
    EXPECT_FALSE(r.config.empty());
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.reconfigurations, 0u);
    EXPECT_EQ(r.flushWritebacks, 0u);
    EXPECT_DOUBLE_EQ(r.ipc, 0.0);
    EXPECT_DOUBLE_EQ(r.mispredictInterval, 0.0);
    EXPECT_DOUBLE_EQ(r.branchAccuracy, 0.0);
    EXPECT_DOUBLE_EQ(r.l1MissRate, 0.0);
    EXPECT_DOUBLE_EQ(r.avgActiveClusters, 0.0);
    EXPECT_DOUBLE_EQ(r.avgRegCommLatency, 0.0);
    EXPECT_DOUBLE_EQ(r.distantFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.bankPredAccuracy, 0.0);
}

TEST(Simulation, WarmupThenZeroMeasureBitEqualsNoWarmup)
{
    // Directed regression for the warmup > 0 && measure == 0 path:
    // warmup must leave no residue in the (empty) measured result, so
    // the full serialized SimResult is bit-identical whether or not a
    // warmup ran first.
    WorkloadSpec w = makeBenchmark("gzip");
    SimResult warmed = runSimulation(staticSubsetConfig(4), w, nullptr,
                                     /*warmup=*/5000, /*measure=*/0);
    SimResult cold = runSimulation(staticSubsetConfig(4), w, nullptr,
                                   /*warmup=*/0, /*measure=*/0);
    EXPECT_EQ(toJson(warmed), toJson(cold));
}

TEST(Simulation, DeterministicResults)
{
    WorkloadSpec w = makeBenchmark("cjpeg");
    SimResult a = runSimulation(staticSubsetConfig(8), w, nullptr,
                                10000, 30000);
    SimResult b = runSimulation(staticSubsetConfig(8), w, nullptr,
                                10000, 30000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

// ---------------------------------------------------------------------------
// Sweep summary
// ---------------------------------------------------------------------------

namespace {

/**
 * A finished two-benchmark sweep built by hand: labels base1 and base2
 * are static, dyn has a controller; ipc[b][v] is benchmark b's IPC
 * under label v.
 */
SweepSummary
handSummary(const std::vector<std::vector<double>> &ipc)
{
    const char *labels[] = {"base1", "base2", "dyn"};
    std::vector<RunPoint> points;
    SweepResult res;
    for (std::size_t b = 0; b < ipc.size(); b++) {
        for (std::size_t v = 0; v < 3; v++) {
            RunPoint p;
            p.label = labels[v];
            if (v == 2)
                p.makeController = [] { return makeExploreController(); };
            points.push_back(std::move(p));
            SweepRun run;
            run.result.benchmark = b == 0 ? "a" : "b";
            run.result.config = labels[v];
            run.result.ipc = ipc[b][v];
            res.runs.push_back(std::move(run));
        }
    }
    return summarizeSweep(points, res);
}

} // namespace

TEST(SweepSummary, TinySweepTablesEveryLabelAndBenchmark)
{
    std::vector<RunPoint> points;
    for (int n : {4, 16}) {
        RunPoint p;
        p.label = "static-" + std::to_string(n);
        p.cfg = staticSubsetConfig(n);
        p.workload = makeBenchmark("gzip");
        p.warmup = 10000;
        p.measure = 30000;
        points.push_back(std::move(p));
    }
    SweepOptions opts;
    opts.threads = 1;
    SweepSummary sum = summarizeSweep(points, runSweep(points, opts));
    ASSERT_EQ(sum.groups.size(), 1u);
    const SweepSummary::Group &g = sum.groups[0];
    EXPECT_EQ(g.benchmarks, std::vector<std::string>{"gzip"});
    ASSERT_EQ(g.labels.size(), 2u);
    EXPECT_GT(g.labels[0].ipc[0], 0.0);
    EXPECT_GT(g.labels[1].ipc[0], 0.0);
    EXPECT_DOUBLE_EQ(g.labels[0].vsFirst, 1.0);
    // No controller label: nothing is scored against the statics.
    EXPECT_TRUE(std::isnan(g.labels[1].vsBestFixed));

    std::string out = sum.format();
    for (const char *word : {"gzip", "static-4", "static-16", "AM", "GM"})
        EXPECT_NE(out.find(word), std::string::npos) << word;
}

TEST(SweepSummary, SpeedupOverPerBenchmarkBestStatic)
{
    // dyn vs best(base1, base2): a: 2.2/2.0, b: 3.0/3.0.
    SweepSummary sum = handSummary({{1.0, 2.0, 2.2}, {3.0, 1.0, 3.0}});
    EXPECT_NEAR(sum.groups[0].labels[2].vsBestStatic,
                std::sqrt(1.1 * 1.0), 1e-9);
}

TEST(SweepSummary, SpeedupOverBestFixedPicksSingleStatic)
{
    // base1 gm = sqrt(1*4) = 2.0, base2 gm = sqrt(2*2.5) ~ 2.24: base2
    // is the best fixed static label.
    // dyn vs base2: (2.0/2.0, 4.0/2.5) -> sqrt(1 * 1.6)
    SweepSummary sum = handSummary({{1.0, 2.0, 2.0}, {4.0, 2.5, 4.0}});
    EXPECT_NEAR(sum.groups[0].labels[2].vsBestFixed,
                std::sqrt(1.0 * 1.6), 1e-9);
}

// ---------------------------------------------------------------------------
// Phase statistics (Table 4 machinery)
// ---------------------------------------------------------------------------

TEST(PhaseStats, CollectorSamples)
{
    IntervalStatsCollector col(16, 1000);
    Cycle cycle = 0;
    for (int i = 0; i < 5500; i++) {
        CommitEvent ev;
        ev.op = (i % 5 == 0) ? OpClass::CondBranch
              : (i % 3 == 0) ? OpClass::Load
                             : OpClass::IntAlu;
        ev.cycle = ++cycle;
        col.onCommit(ev);
    }
    EXPECT_EQ(col.samples().size(), 5u); // 5 full 1K samples
    EXPECT_EQ(col.samples()[0].instructions, 1000u);
    EXPECT_GT(col.samples()[0].branches, 150u);
    EXPECT_EQ(col.targetClusters(), 16);
}

TEST(PhaseStats, UniformTraceIsStable)
{
    std::vector<IntervalSample> samples(100);
    for (auto &s : samples) {
        s.instructions = 1000;
        s.cycles = 800;
        s.branches = 160;
        s.memrefs = 350;
    }
    EXPECT_DOUBLE_EQ(instabilityFactor(samples, 1000, 1000), 0.0);
    EXPECT_DOUBLE_EQ(instabilityFactor(samples, 1000, 10000), 0.0);
}

TEST(PhaseStats, AlternatingTraceUnstableAtFineGrain)
{
    // Phases alternate every 4 samples with very different IPC.
    std::vector<IntervalSample> samples(200);
    for (std::size_t i = 0; i < samples.size(); i++) {
        auto &s = samples[i];
        s.instructions = 1000;
        s.branches = 160;
        s.memrefs = 350;
        s.cycles = (i / 4) % 2 ? 500 : 1500;
    }
    double fine = instabilityFactor(samples, 1000, 1000);
    // At a 8-sample interval the mixture is uniform again.
    double coarse = instabilityFactor(samples, 1000, 8000);
    EXPECT_GT(fine, 0.15);
    EXPECT_LT(coarse, 0.05);
}

TEST(PhaseStats, MinimumStableIntervalPicksCoarseEnough)
{
    std::vector<IntervalSample> samples(512);
    for (std::size_t i = 0; i < samples.size(); i++) {
        auto &s = samples[i];
        s.instructions = 1000;
        s.branches = (i / 8) % 2 ? 120 : 220; // phase every 8 samples
        s.memrefs = 350;
        s.cycles = 1000;
    }
    std::uint64_t best = minimumStableInterval(
        samples, 1000, {1000, 2000, 4000, 8000, 16000, 32000});
    EXPECT_GE(best, 16000u);
    EXPECT_NE(best, 0u);
}

TEST(PhaseStats, RejectsNonMultipleInterval)
{
    std::vector<IntervalSample> samples(10);
    EXPECT_DEATH_IF_SUPPORTED(
        { instabilityFactor(samples, 1000, 1500); }, "");
}

// ---------------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------------

TEST(Energy, AllOnIsUnity)
{
    EXPECT_DOUBLE_EQ(relativeLeakage(16.0, 16), 1.0);
    EXPECT_DOUBLE_EQ(leakageSavings(16.0, 16), 0.0);
}

TEST(Energy, PaperScenarioSavesSubstantially)
{
    // 8.3 of 16 clusters disabled on average (paper Section 4.2).
    double savings = leakageSavings(16.0 - 8.3, 16);
    EXPECT_GT(savings, 0.3);
    EXPECT_LT(savings, 0.7);
}

TEST(Energy, MonotonicInActiveClusters)
{
    EXPECT_LT(relativeLeakage(4.0, 16), relativeLeakage(8.0, 16));
    EXPECT_LT(relativeLeakage(8.0, 16), relativeLeakage(12.0, 16));
}

TEST(Energy, ClampsOutOfRange)
{
    EXPECT_DOUBLE_EQ(relativeLeakage(20.0, 16), 1.0);
    EXPECT_GT(relativeLeakage(-1.0, 16), 0.0);
}

TEST(PhaseStats, TooFewIntervalsIsNaNNotStable)
{
    std::vector<IntervalSample> samples(5);
    for (auto &s : samples) {
        s.instructions = 1000;
        s.cycles = 1000;
        s.branches = 160;
        s.memrefs = 350;
    }
    // Zero whole 10K intervals fit in 5K of samples: no data at all.
    std::size_t dropped = 99;
    double f = instabilityFactor(samples, 1000, 10000, 0.10, 100.0,
                                 &dropped);
    EXPECT_TRUE(std::isnan(f));
    EXPECT_EQ(dropped, 5u);
    // One whole interval is no better: there is no pair to compare,
    // and NaN (not 0.0, "perfectly stable") is the answer.
    f = instabilityFactor(samples, 1000, 4000, 0.10, 100.0, &dropped);
    EXPECT_TRUE(std::isnan(f));
    EXPECT_EQ(dropped, 1u);
}

TEST(PhaseStats, ReportsDroppedTrailingSamples)
{
    std::vector<IntervalSample> samples(10);
    for (auto &s : samples) {
        s.instructions = 1000;
        s.cycles = 1000;
        s.branches = 160;
        s.memrefs = 350;
    }
    // 10 samples at a 4K interval: two whole groups, two trailing
    // samples excluded from the computation.
    std::size_t dropped = 99;
    double f = instabilityFactor(samples, 1000, 4000, 0.10, 100.0,
                                 &dropped);
    EXPECT_DOUBLE_EQ(f, 0.0);
    EXPECT_EQ(dropped, 2u);
}

TEST(PhaseStats, MinimumStableIntervalRejectsNoDataLengths)
{
    // Perfectly uniform samples, but the only candidate fits just one
    // whole interval: "no data" must not be reported as stable.
    std::vector<IntervalSample> samples(8);
    for (auto &s : samples) {
        s.instructions = 1000;
        s.cycles = 1000;
        s.branches = 160;
        s.memrefs = 350;
    }
    EXPECT_EQ(minimumStableInterval(samples, 1000, {8000}), 0u);
    // With a judgeable candidate present, that one is picked.
    EXPECT_EQ(minimumStableInterval(samples, 1000, {8000, 1000}),
              1000u);
}
