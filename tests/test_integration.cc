/**
 * @file
 * Integration and end-to-end property tests: whole-processor runs with
 * dynamic controllers, cross-configuration invariants from the paper
 * (communication idealizations help; the decentralized cache
 * reconfigures by flushing; distant-ILP metrics separate program
 * classes), and parameterized sweeps over cluster counts.
 */

#include <gtest/gtest.h>

#include "reconfig/finegrain.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/interval_ilp.hh"
#include "sim/energy.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"

using namespace clustersim;

namespace {

constexpr std::uint64_t kWarm = 30000;
constexpr std::uint64_t kRun = 120000;

WorkloadSpec
serialWorkload()
{
    WorkloadSpec w;
    w.name = "serial";
    w.seed = 11;
    PhaseSpec p;
    p.codeBlocks = 32;
    p.chainCount = 2;
    p.pChainDep = 0.85;
    p.pAddrChainDep = 0.7;
    p.fracPointerChase = 0.15;
    p.chaseRegionKB = 16;
    w.phases = {p};
    w.schedule = {{0, 1000000}};
    return w;
}

WorkloadSpec
parallelWorkload()
{
    WorkloadSpec w;
    w.name = "parallel";
    w.seed = 12;
    PhaseSpec p;
    p.codeBlocks = 32;
    p.avgBlockLen = 14;
    p.chainCount = 20;
    p.pChainDep = 0.8;
    p.fracBiased = 0.95;
    p.fracPattern = 0.04;
    p.biasedTakenProb = 0.99;
    p.uniformBlockMix = true;
    p.fracStreamMem = 0.95;
    p.streamSpanKB = 512;
    p.footprintKB = 512;
    w.phases = {p};
    w.schedule = {{0, 1000000}};
    return w;
}

} // namespace

// ---------------------------------------------------------------------------
// The communication-parallelism trade-off itself
// ---------------------------------------------------------------------------

TEST(TradeOff, ParallelCodeScalesWithClusters)
{
    WorkloadSpec w = parallelWorkload();
    SimResult c4 = runSimulation(staticSubsetConfig(4), w, nullptr,
                                 kWarm, kRun);
    SimResult c16 = runSimulation(staticSubsetConfig(16), w, nullptr,
                                  kWarm, kRun);
    EXPECT_GT(c16.ipc, c4.ipc * 1.1);
}

TEST(TradeOff, SerialCodeDoesNotScale)
{
    WorkloadSpec w = serialWorkload();
    SimResult c4 = runSimulation(staticSubsetConfig(4), w, nullptr,
                                 kWarm, kRun);
    SimResult c16 = runSimulation(staticSubsetConfig(16), w, nullptr,
                                  kWarm, kRun);
    EXPECT_LT(c16.ipc, c4.ipc * 1.05);
}

TEST(TradeOff, DistantIlpSeparatesClasses)
{
    SimResult par = runSimulation(staticSubsetConfig(16),
                                  parallelWorkload(), nullptr, kWarm,
                                  kRun);
    SimResult ser = runSimulation(staticSubsetConfig(16),
                                  serialWorkload(), nullptr, kWarm,
                                  kRun);
    EXPECT_GT(par.distantFraction, ser.distantFraction * 1.5);
}

// ---------------------------------------------------------------------------
// Parameterized cluster-count sweep (Figure 3 machinery)
// ---------------------------------------------------------------------------

class ClusterSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ClusterSweep, RunsAtEveryCount)
{
    int n = GetParam();
    WorkloadSpec w = makeBenchmark("gzip");
    SimResult r = runSimulation(staticSubsetConfig(n), w, nullptr,
                                kWarm, 60000);
    EXPECT_GT(r.ipc, 0.05) << n << " clusters";
    EXPECT_NEAR(r.avgActiveClusters, n, 0.01);
}

// Starts at 2: a single Table 1 cluster has 30 physical registers for
// 32 architectural ones, so rename deadlocks on any workload keeping
// all logical registers live (the processor rejects it at reset; see
// minViableClusters). The paper's candidate sets likewise start at 2.
INSTANTIATE_TEST_SUITE_P(AllCounts, ClusterSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16));

class BenchmarkSmoke : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BenchmarkSmoke, SixteenClusterRun)
{
    WorkloadSpec w = makeBenchmark(GetParam());
    SimResult r = runSimulation(staticSubsetConfig(16), w, nullptr,
                                kWarm, 60000);
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_GT(r.branchAccuracy, 0.6);
    EXPECT_LT(r.l1MissRate, 0.97);
}

INSTANTIATE_TEST_SUITE_P(AllNine, BenchmarkSmoke,
                         ::testing::Values("cjpeg", "crafty", "djpeg",
                                           "galgel", "gzip", "mgrid",
                                           "parser", "swim", "vpr"));

// ---------------------------------------------------------------------------
// Idealization invariants (Section 4 / Section 5 in-text studies)
// ---------------------------------------------------------------------------

TEST(Idealization, FreeMemCommHelpsAtSixteenClusters)
{
    WorkloadSpec w = makeBenchmark("gzip");
    ProcessorConfig base = staticSubsetConfig(16);
    ProcessorConfig ideal = base;
    ideal.freeMemComm = true;
    SimResult rb = runSimulation(base, w, nullptr, kWarm, kRun);
    SimResult ri = runSimulation(ideal, w, nullptr, kWarm, kRun);
    EXPECT_GT(ri.ipc, rb.ipc * 1.02);
}

TEST(Idealization, FreeRegCommHelpsAtSixteenClusters)
{
    WorkloadSpec w = makeBenchmark("parser");
    ProcessorConfig base = staticSubsetConfig(16);
    ProcessorConfig ideal = base;
    ideal.freeRegComm = true;
    SimResult rb = runSimulation(base, w, nullptr, kWarm, kRun);
    SimResult ri = runSimulation(ideal, w, nullptr, kWarm, kRun);
    // Free register communication must not hurt. (The network still
    // carries load/store traffic, so its average latency stays > 0.)
    EXPECT_GE(ri.ipc, rb.ipc * 0.99);
}

TEST(Idealization, MemCommCostExceedsRegCommCost)
{
    // Paper: +31% from free ld/st communication vs +11% from free
    // register communication at 16 clusters (centralized cache).
    WorkloadSpec w = makeBenchmark("parser");
    ProcessorConfig base = staticSubsetConfig(16);
    ProcessorConfig fm = base;
    fm.freeMemComm = true;
    ProcessorConfig fr = base;
    fr.freeRegComm = true;
    SimResult rb = runSimulation(base, w, nullptr, kWarm, kRun);
    SimResult rm = runSimulation(fm, w, nullptr, kWarm, kRun);
    SimResult rr = runSimulation(fr, w, nullptr, kWarm, kRun);
    EXPECT_GT(rm.ipc / rb.ipc, rr.ipc / rb.ipc);
}

// ---------------------------------------------------------------------------
// Dynamic controllers end-to-end
// ---------------------------------------------------------------------------

TEST(Dynamic, ExploreSettlesOnUniformFpCode)
{
    WorkloadSpec w = parallelWorkload();
    IntervalExploreParams p;
    p.initialInterval = 10000;
    IntervalExploreController ctrl(p);
    SimResult r = runSimulation(clusteredConfig(16), w, &ctrl, kWarm,
                                400000);
    // Uniform scalable code: must end up at 16 clusters, stable.
    EXPECT_TRUE(ctrl.stable());
    EXPECT_EQ(ctrl.targetClusters(), 16);
    EXPECT_EQ(ctrl.intervalLength(), 10000u);
    EXPECT_GT(r.avgActiveClusters, 10.0);
}

TEST(Dynamic, ExplorePicksSmallForSerialCode)
{
    WorkloadSpec w = serialWorkload();
    IntervalExploreParams p;
    p.initialInterval = 10000;
    IntervalExploreController ctrl(p);
    SimResult r = runSimulation(clusteredConfig(16), w, &ctrl, kWarm,
                                400000);
    // Flat scaling curve: the algorithm may settle anywhere, but its
    // choice must be competitive with the best static configuration.
    SimResult c4 = runSimulation(staticSubsetConfig(4), w, nullptr,
                                 kWarm, kRun);
    EXPECT_GT(r.ipc, c4.ipc * 0.8);
}

TEST(Dynamic, IlpControllerTracksPhases)
{
    // Alternate serial and parallel phases: average active clusters
    // must sit strictly between the two extremes.
    WorkloadSpec w;
    w.name = "phased";
    w.seed = 31;
    w.phases = {serialWorkload().phases[0],
                parallelWorkload().phases[0]};
    w.schedule = {{0, 60000}, {1, 60000}};
    IntervalIlpParams p;
    p.intervalLength = 1000;
    IntervalIlpController ctrl(p);
    SimResult r = runSimulation(clusteredConfig(16), w, &ctrl, kWarm,
                                400000);
    EXPECT_GT(r.avgActiveClusters, 4.5);
    EXPECT_LT(r.avgActiveClusters, 15.5);
    EXPECT_GT(r.reconfigurations, 2u);
}

TEST(Dynamic, FinegrainReconfiguresOften)
{
    WorkloadSpec w;
    w.name = "phased";
    w.seed = 33;
    w.phases = {serialWorkload().phases[0],
                parallelWorkload().phases[0]};
    w.schedule = {{0, 4000}, {1, 4000}};
    FinegrainParams p;
    FinegrainController ctrl(p);
    SimResult r = runSimulation(clusteredConfig(16), w, &ctrl, kWarm,
                                300000);
    EXPECT_GT(ctrl.reconfigPoints(), 1000u);
    EXPECT_GT(r.ipc, 0.1);
}

TEST(Dynamic, DisabledClustersSaveLeakage)
{
    WorkloadSpec w = serialWorkload();
    IntervalIlpController ctrl;
    SimResult r = runSimulation(clusteredConfig(16), w, &ctrl, kWarm,
                                200000);
    double savings = leakageSavings(r.avgActiveClusters, 16);
    EXPECT_GT(savings, 0.2);
}

// ---------------------------------------------------------------------------
// Decentralized cache (Section 5)
// ---------------------------------------------------------------------------

TEST(Decentralized, BankPredictionMostlyCorrectOnStreams)
{
    WorkloadSpec w = parallelWorkload();
    ProcessorConfig cfg = clusteredConfig(16, InterconnectKind::Ring,
                                          true);
    SimResult r = runSimulation(cfg, w, nullptr, kWarm, kRun);
    EXPECT_GT(r.bankPredAccuracy, 0.25);
}

TEST(Decentralized, ReconfigurationFlushesCache)
{
    WorkloadSpec w;
    w.name = "phased";
    w.seed = 35;
    w.phases = {serialWorkload().phases[0],
                parallelWorkload().phases[0]};
    w.schedule = {{0, 50000}, {1, 50000}};
    ProcessorConfig cfg = clusteredConfig(16, InterconnectKind::Ring,
                                          true);
    IntervalIlpParams p;
    p.intervalLength = 1000;
    IntervalIlpController ctrl(p);
    SimResult r = runSimulation(cfg, w, &ctrl, kWarm, 400000);
    EXPECT_GT(r.reconfigurations, 0u);
    EXPECT_GT(r.flushWritebacks, 0u);
}

TEST(Decentralized, PerfectBankPredictionHelps)
{
    WorkloadSpec w = makeBenchmark("parser");
    ProcessorConfig base = clusteredConfig(16, InterconnectKind::Ring,
                                           true);
    ProcessorConfig ideal = base;
    ideal.perfectBankPred = true;
    SimResult rb = runSimulation(base, w, nullptr, kWarm, kRun);
    SimResult ri = runSimulation(ideal, w, nullptr, kWarm, kRun);
    EXPECT_GT(ri.ipc, rb.ipc);
}

// ---------------------------------------------------------------------------
// Sensitivity configurations run end-to-end (Section 6)
// ---------------------------------------------------------------------------

namespace {

struct SensitivityVariant
{
    const char *name;
    ProcessorConfig (*config)();
};

/**
 * Names the variant in test listings (ctest shows ".../slowHops"); a
 * bare function pointer would print its address, which changes from
 * one process to the next.
 */
void
PrintTo(const SensitivityVariant &variant, std::ostream *os)
{
    *os << variant.name;
}

} // namespace

class SensitivitySmoke
    : public ::testing::TestWithParam<SensitivityVariant>
{
};

TEST_P(SensitivitySmoke, RunsGzip)
{
    WorkloadSpec w = makeBenchmark("gzip");
    SimResult r = runSimulation(GetParam().config(), w, nullptr, kWarm,
                                60000);
    EXPECT_GT(r.ipc, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SensitivitySmoke,
    ::testing::Values(
        SensitivityVariant{"fewerResources", &fewerResourcesConfig},
        SensitivityVariant{"moreResources", &moreResourcesConfig},
        SensitivityVariant{"moreFus", &moreFusConfig},
        SensitivityVariant{"slowHops", &slowHopsConfig}));

TEST(Sensitivity, SlowHopsHurtSixteenClusters)
{
    WorkloadSpec w = makeBenchmark("gzip");
    SimResult fast = runSimulation(staticSubsetConfig(16), w, nullptr,
                                   kWarm, kRun);
    ProcessorConfig slow = slowHopsConfig();
    SimResult r = runSimulation(slow, w, nullptr, kWarm, kRun);
    EXPECT_LT(r.ipc, fast.ipc);
}

// ---------------------------------------------------------------------------
// Additional targeted coverage
// ---------------------------------------------------------------------------

TEST(Decentralized, RandomAccessesCauseBankMispredicts)
{
    // Random addresses are inherently unpredictable: the bank predictor
    // must record real mispredictions (exercising the re-route path).
    WorkloadSpec w;
    w.name = "rand";
    w.seed = 91;
    PhaseSpec p;
    p.fracStreamMem = 0.0;
    p.fracLoad = 0.35;
    p.footprintKB = 64;
    p.hotFraction = 0.0;
    w.phases = {p};
    w.schedule = {{0, 1000000}};

    ProcessorConfig cfg = clusteredConfig(8, InterconnectKind::Ring,
                                          true);
    SyntheticWorkload trace(w);
    Processor proc(cfg, &trace);
    proc.run(30000);
    EXPECT_GT(proc.stats().bankMispredicts, 100u);
    EXPECT_LT(proc.stats().bankMispredicts, proc.stats().bankLookups);
}

TEST(Metrics, DistantFractionIsAFraction)
{
    for (const char *name : {"swim", "vpr"}) {
        SimResult r = runSimulation(staticSubsetConfig(16),
                                    makeBenchmark(name), nullptr,
                                    kWarm, 60000);
        EXPECT_GE(r.distantFraction, 0.0) << name;
        EXPECT_LE(r.distantFraction, 1.0) << name;
    }
}

TEST(Metrics, CyclesAndInstructionsConsistent)
{
    SimResult r = runSimulation(staticSubsetConfig(8),
                                makeBenchmark("mgrid"), nullptr, kWarm,
                                60000);
    EXPECT_NEAR(r.ipc,
                static_cast<double>(r.instructions) /
                    static_cast<double>(r.cycles),
                1e-9);
}

TEST(Dynamic, ControllersNeverDeadlockAcrossReconfig)
{
    // Rapidly alternating phases with a fast controller: the processor
    // must keep committing through every reconfiguration (centralized
    // and decentralized).
    WorkloadSpec w;
    w.name = "thrash";
    w.seed = 17;
    PhaseSpec a = serialWorkload().phases[0];
    PhaseSpec b = parallelWorkload().phases[0];
    w.phases = {a, b};
    w.schedule = {{0, 3000}, {1, 3000}};

    for (bool dcache : {false, true}) {
        IntervalIlpParams p;
        p.intervalLength = 1000;
        IntervalIlpController ctrl(p);
        ProcessorConfig cfg = clusteredConfig(
            16, InterconnectKind::Ring, dcache);
        SyntheticWorkload trace(w);
        Processor proc(cfg, &trace, &ctrl);
        proc.run(120000);
        EXPECT_GE(proc.committed(), 120000u);
        EXPECT_GT(proc.stats().reconfigurations, 0u);
    }
}
