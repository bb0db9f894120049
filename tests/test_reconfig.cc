/**
 * @file
 * Unit tests for the reconfiguration machinery: the distant-ILP
 * tracker, the Figure 4 interval-with-exploration controller, the
 * no-exploration distant-ILP controller, the fine-grained branch-table
 * controller, the ineffectuality-gating controller, the offline-oracle
 * DP and schedule replay, and the controller-policy registry.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "reconfig/distant_ilp.hh"
#include "reconfig/finegrain.hh"
#include "reconfig/ineffectuality.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/interval_ilp.hh"
#include "reconfig/oracle.hh"
#include "reconfig/registry.hh"

using namespace clustersim;

namespace {

/** Feed a controller n committed instructions with fixed properties. */
void
feed(ReconfigController &ctrl, std::uint64_t n, Cycle &cycle,
     double ipc, double branch_every = 6.0, double mem_every = 3.0,
     bool distant = false)
{
    for (std::uint64_t i = 0; i < n; i++) {
        CommitEvent ev;
        ev.pc = 0x1000 + (i % 64) * 4;
        if (std::fmod(static_cast<double>(i), branch_every) < 1.0)
            ev.op = OpClass::CondBranch;
        else if (std::fmod(static_cast<double>(i), mem_every) < 1.0)
            ev.op = OpClass::Load;
        else
            ev.op = OpClass::IntAlu;
        ev.distant = distant;
        // Advance time so the interval IPC equals `ipc` exactly.
        static thread_local double clock_acc = 0.0;
        clock_acc += 1.0 / ipc;
        if (clock_acc >= static_cast<double>(cycle) + 1.0)
            cycle = static_cast<Cycle>(clock_acc);
        ev.cycle = cycle;
        ctrl.onCommit(ev);
    }
}

} // namespace

// ---------------------------------------------------------------------------
// DistantIlpTracker
// ---------------------------------------------------------------------------

TEST(DistantTracker, CountsWindowContents)
{
    DistantIlpTracker t(4);
    t.push(1, true, false);
    t.push(2, false, false);
    t.push(3, true, false);
    EXPECT_EQ(t.count(), 2);
    EXPECT_FALSE(t.full());
    t.push(4, false, false);
    EXPECT_TRUE(t.full());
}

TEST(DistantTracker, EvictionReportsFollowingWindow)
{
    DistantIlpTracker t(3);
    // Window: A(marked), B, C; when D pushes, A leaves and its
    // "distant following" covers B, C, D.
    t.push(0xA, false, true);
    t.push(0xB, true, false);
    t.push(0xC, false, false);
    auto ev = t.push(0xD, true, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.pc, 0xAu);
    EXPECT_TRUE(ev.marked);
    EXPECT_EQ(ev.distantFollowing, 2); // B and D distant
}

TEST(DistantTracker, NoEvictionUntilFull)
{
    DistantIlpTracker t(8);
    for (int i = 0; i < 8; i++)
        EXPECT_FALSE(t.push(static_cast<Addr>(i), false, false).valid);
    EXPECT_TRUE(t.push(100, false, false).valid);
}

TEST(DistantTracker, RunningCountMatchesWindow)
{
    DistantIlpTracker t(16);
    int expect = 0;
    for (int i = 0; i < 100; i++) {
        bool d = (i % 3) == 0;
        t.push(static_cast<Addr>(i), d, false);
        if (d)
            expect++;
        if (i >= 16 && ((i - 16) % 3) == 0)
            expect--;
        ASSERT_EQ(t.count(), expect) << "at " << i;
    }
}

TEST(DistantTracker, ResetClears)
{
    DistantIlpTracker t(4);
    t.push(1, true, true);
    t.reset();
    EXPECT_EQ(t.count(), 0);
    EXPECT_FALSE(t.full());
}

// ---------------------------------------------------------------------------
// StaticController
// ---------------------------------------------------------------------------

TEST(StaticController, FixedTarget)
{
    StaticController c(4);
    EXPECT_EQ(c.targetClusters(), 4);
    CommitEvent ev;
    c.onCommit(ev);
    EXPECT_EQ(c.targetClusters(), 4);
    EXPECT_EQ(c.name(), "static-4");
}

// ---------------------------------------------------------------------------
// IntervalExploreController (Figure 4)
// ---------------------------------------------------------------------------

TEST(Explore, ExploresAllConfigsInOrder)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(16, 16);

    Cycle cycle = 0;
    // Reference interval.
    feed(c, 1000, cycle, 1.0);
    EXPECT_EQ(c.targetClusters(), 2);
    feed(c, 1000, cycle, 1.0); // measured at 2
    EXPECT_EQ(c.targetClusters(), 4);
    feed(c, 1000, cycle, 1.2);
    EXPECT_EQ(c.targetClusters(), 8);
    feed(c, 1000, cycle, 1.4);
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_FALSE(c.stable());
    feed(c, 1000, cycle, 1.1);
    // Best IPC was at 8 clusters.
    EXPECT_EQ(c.targetClusters(), 8);
    EXPECT_TRUE(c.stable());
}

TEST(Explore, StaysStableOnUniformBehaviour)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 40; i++)
        feed(c, 1000, cycle, 1.0);
    EXPECT_TRUE(c.stable());
    EXPECT_EQ(c.phaseChanges(), 0u);
    EXPECT_EQ(c.intervalLength(), 1000u);
}

TEST(Explore, BranchFrequencyChangeTriggersReexploration)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 10; i++)
        feed(c, 1000, cycle, 1.0, /*branch every*/ 6.0);
    EXPECT_TRUE(c.stable());
    // Dramatically more branches per interval.
    feed(c, 1000, cycle, 1.0, /*branch every*/ 2.5);
    EXPECT_EQ(c.phaseChanges(), 1u);
    EXPECT_FALSE(c.stable());
}

TEST(Explore, IpcNoiseToleratedUntilThreshold)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 8; i++)
        feed(c, 1000, cycle, 1.0);
    ASSERT_TRUE(c.stable());
    // A couple of noisy intervals do not trigger a phase change...
    feed(c, 1000, cycle, 1.5);
    feed(c, 1000, cycle, 1.5);
    EXPECT_EQ(c.phaseChanges(), 0u);
    // ...but persistent IPC deviation eventually does.
    for (int i = 0; i < 4; i++)
        feed(c, 1000, cycle, 1.5);
    EXPECT_GE(c.phaseChanges(), 1u);
}

TEST(Explore, InstabilityDoublesInterval)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    // Flip branch frequency every interval: constant phase changes.
    for (int i = 0; i < 8; i++)
        feed(c, 1000, cycle, 1.0, i % 2 ? 2.5 : 8.0);
    EXPECT_GT(c.intervalLength(), 1000u);
}

TEST(Explore, DiscontinuesAtMaxInterval)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    p.maxInterval = 4000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    // Aperiodic branch-frequency churn so no interval length averages
    // it away: the algorithm must eventually give up.
    for (int i = 0; i < 400 && !c.discontinued(); i++)
        feed(c, 500 + (i * 137) % 900, cycle, 1.0,
             2.0 + (i * 7) % 11);
    EXPECT_TRUE(c.discontinued());
    int final_target = c.targetClusters();
    // After discontinuing, nothing changes any more.
    feed(c, 20000, cycle, 1.0, 3.0);
    EXPECT_EQ(c.targetClusters(), final_target);
}

TEST(Explore, AttachDropsOversizedConfigs)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(8, 8); // 16-cluster option must be dropped
    Cycle cycle = 0;
    for (int i = 0; i < 10; i++)
        feed(c, 1000, cycle, 1.0);
    EXPECT_LE(c.targetClusters(), 8);
}

// ---------------------------------------------------------------------------
// IntervalIlpController
// ---------------------------------------------------------------------------

TEST(IntervalIlp, PicksBigOnDistantIlp)
{
    IntervalIlpParams p;
    p.intervalLength = 1000;
    p.distantPerMille = 160;
    IntervalIlpController c(p);
    c.attach(16, 16);
    EXPECT_EQ(c.targetClusters(), 16); // measuring
    Cycle cycle = 0;
    feed(c, 1000, cycle, 1.0, 6.0, 3.0, /*distant=*/true);
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_FALSE(c.measuring());
}

TEST(IntervalIlp, PicksSmallWithoutDistantIlp)
{
    IntervalIlpParams p;
    p.intervalLength = 1000;
    IntervalIlpController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    feed(c, 1000, cycle, 1.0, 6.0, 3.0, /*distant=*/false);
    EXPECT_EQ(c.targetClusters(), 4);
}

TEST(IntervalIlp, RemeasuresOnPhaseChange)
{
    IntervalIlpParams p;
    p.intervalLength = 1000;
    IntervalIlpController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    feed(c, 1000, cycle, 1.0, 6.0, 3.0, false); // -> 4 clusters
    feed(c, 2000, cycle, 1.0, 6.0, 3.0, false); // settled
    ASSERT_EQ(c.targetClusters(), 4);
    // Branch frequency shifts: re-measure at 16.
    feed(c, 1000, cycle, 1.0, 2.5, 3.0, false);
    EXPECT_TRUE(c.measuring());
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_GE(c.phaseChanges(), 1u);
}

// ---------------------------------------------------------------------------
// FinegrainController
// ---------------------------------------------------------------------------

namespace {

/** Commit a block of body instructions then one branch at branch_pc. */
void
commitBlock(FinegrainController &c, Addr branch_pc, int body,
            bool distant, Cycle &cycle)
{
    CommitEvent ev;
    for (int i = 0; i < body; i++) {
        ev.pc = branch_pc + 0x100 + static_cast<Addr>(i) * 4;
        ev.op = OpClass::IntAlu;
        ev.distant = distant;
        ev.cycle = ++cycle;
        c.onCommit(ev);
    }
    ev.pc = branch_pc;
    ev.op = OpClass::CondBranch;
    ev.distant = distant;
    ev.cycle = ++cycle;
    c.onCommit(ev);
}

} // namespace

TEST(Finegrain, DefaultsToBigWhileLearning)
{
    FinegrainParams p;
    p.branchStride = 1;
    p.ilpWindow = 36;
    p.samplesNeeded = 2;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    commitBlock(c, 0x1000, 8, false, cycle);
    EXPECT_EQ(c.targetClusters(), 16); // unknown branch: run wide
}

TEST(Finegrain, LearnsLowIlpBranchAdvisesSmall)
{
    FinegrainParams p;
    p.branchStride = 1;
    p.ilpWindow = 18;
    p.samplesNeeded = 2;
    p.distantThreshold = 6;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    // The same branch repeatedly followed by non-distant work.
    for (int i = 0; i < 40; i++)
        commitBlock(c, 0x2000, 8, false, cycle);
    EXPECT_EQ(c.targetClusters(), 4);
}

TEST(Finegrain, LearnsHighIlpBranchAdvisesBig)
{
    FinegrainParams p;
    p.branchStride = 1;
    p.ilpWindow = 18;
    p.samplesNeeded = 2;
    p.distantThreshold = 6;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 40; i++)
        commitBlock(c, 0x3000, 8, true, cycle);
    EXPECT_EQ(c.targetClusters(), 16);
}

TEST(Finegrain, BranchStrideSamplesEveryNth)
{
    FinegrainParams p;
    p.branchStride = 5;
    p.ilpWindow = 18;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 50; i++)
        commitBlock(c, 0x4000 + static_cast<Addr>(i % 10) * 0x40, 8,
                    false, cycle);
    // 50 branches / stride 5 = 10 reconfiguration points.
    EXPECT_EQ(c.reconfigPoints(), 10u);
}

TEST(Finegrain, TableFlushForgetsDecisions)
{
    FinegrainParams p;
    p.branchStride = 1;
    p.ilpWindow = 18;
    p.samplesNeeded = 2;
    p.distantThreshold = 6;
    p.flushPeriod = 2000;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 40; i++)
        commitBlock(c, 0x5000, 8, false, cycle);
    ASSERT_EQ(c.targetClusters(), 4);
    // Push past the flush period with different branches.
    for (int i = 0; i < 300; i++)
        commitBlock(c, 0x9000 + static_cast<Addr>(i % 50) * 0x40, 8,
                    true, cycle);
    EXPECT_GE(c.tableFlushes(), 1u);
    // The old branch is unknown again: wide until re-sampled.
    commitBlock(c, 0x5000, 8, false, cycle);
    EXPECT_EQ(c.targetClusters(), 16);
}

TEST(Finegrain, SubroutineModeTriggersOnCallsOnly)
{
    FinegrainParams p;
    p.subroutineMode = true;
    p.ilpWindow = 18;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    CommitEvent ev;
    ev.op = OpClass::CondBranch;
    ev.pc = 0x100;
    ev.cycle = ++cycle;
    c.onCommit(ev);
    EXPECT_EQ(c.reconfigPoints(), 0u);
    ev.op = OpClass::Call;
    ev.cycle = ++cycle;
    c.onCommit(ev);
    EXPECT_EQ(c.reconfigPoints(), 1u);
    ev.op = OpClass::Return;
    ev.cycle = ++cycle;
    c.onCommit(ev);
    EXPECT_EQ(c.reconfigPoints(), 2u);
}

TEST(Explore, DiscontinueFallsBackToMostPopularConfig)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    p.maxInterval = 2000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    // Stable long enough to accumulate popularity for one config, then
    // churn until the algorithm gives up.
    for (int i = 0; i < 30; i++)
        feed(c, 1000, cycle, 1.0);
    int settled = c.targetClusters();
    for (int i = 0; i < 400 && !c.discontinued(); i++)
        feed(c, 500 + (i * 137) % 900, cycle, 1.0,
             2.0 + (i * 7) % 11);
    ASSERT_TRUE(c.discontinued());
    // The fallback is the configuration that accumulated stable time.
    EXPECT_EQ(c.targetClusters(), settled);
}

// ---------------------------------------------------------------------------
// attach() must fully reset per-run state (controllers are reused
// across runs by the sweep engine)
// ---------------------------------------------------------------------------

TEST(Explore, ReattachResetsAllPerRunState)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    p.maxInterval = 4000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    // Churn until the algorithm gives up...
    for (int i = 0; i < 400 && !c.discontinued(); i++)
        feed(c, 500 + (i * 137) % 900, cycle, 1.0,
             2.0 + (i * 7) % 11);
    ASSERT_TRUE(c.discontinued());
    ASSERT_GT(c.intervalLength(), 1000u);
    ASSERT_GT(c.phaseChanges(), 0u);

    // ...then hand the same controller to a new run: everything
    // per-run must be back at its initial value.
    c.attach(16, 16);
    EXPECT_FALSE(c.discontinued());
    EXPECT_FALSE(c.stable());
    EXPECT_EQ(c.intervalLength(), 1000u);
    EXPECT_EQ(c.phaseChanges(), 0u);
    EXPECT_EQ(c.explorations(), 0u);

    // And the algorithm must actually run again, not stay dead: a
    // uniform workload settles into a stable configuration.
    for (int i = 0; i < 10; i++)
        feed(c, 1000, cycle, 1.0);
    EXPECT_TRUE(c.stable());
    EXPECT_FALSE(c.discontinued());
}

TEST(Explore, ReattachReproducesFirstRunDecisions)
{
    // The exact decision trace of a run script; IPC values are chosen
    // with exactly-representable reciprocals so the feed() clock model
    // reproduces identical interval boundaries in both runs.
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);

    auto script = [&](Cycle &cycle) {
        std::vector<int> targets;
        auto step = [&](double ipc, double branch_every) {
            feed(c, 1000, cycle, ipc, branch_every);
            targets.push_back(c.targetClusters());
        };
        step(1.0, 6.0); // reference
        step(1.0, 6.0); // explore @2
        step(2.0, 6.0); // explore @4
        step(4.0, 6.0); // explore @8
        step(2.0, 6.0); // explore @16 -> settle on 8
        for (int i = 0; i < 4; i++)
            step(4.0, 6.0); // stable
        step(4.0, 2.5);     // branch-frequency phase change
        step(1.0, 2.5);     // new reference
        step(2.0, 2.5);     // explore @2
        step(1.0, 2.5);     // explore @4
        step(1.0, 2.5);     // explore @8
        step(1.0, 2.5);     // explore @16 -> settle on 2
        for (int i = 0; i < 3; i++)
            step(2.0, 2.5); // stable
        return targets;
    };

    Cycle cycle1 = 0;
    c.attach(16, 16);
    std::vector<int> first = script(cycle1);

    Cycle cycle2 = 0;
    c.attach(16, 16);
    std::vector<int> second = script(cycle2);

    EXPECT_EQ(first, second);
    EXPECT_TRUE(c.stable());
}

TEST(Explore, ReattachToWiderHardwareRegainsConfigs)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(8, 8); // drops the 16-cluster candidate...
    c.attach(16, 16); // ...which a wider re-attach must restore
    Cycle cycle = 0;
    feed(c, 1000, cycle, 1.0); // reference
    feed(c, 1000, cycle, 1.0); // @2
    feed(c, 1000, cycle, 1.2); // @4
    feed(c, 1000, cycle, 1.4); // @8
    feed(c, 1000, cycle, 2.0); // @16: the best
    EXPECT_EQ(c.targetClusters(), 16);
}

TEST(Explore, DiscontinueTieBreakPrefersSmallerConfig)
{
    // Engineer exactly equal stable time for configurations 2 and 4,
    // then force a discontinue: the fallback must deterministically
    // pick the smaller of the tied configurations.
    IntervalExploreParams p;
    p.initialInterval = 1000;
    p.maxInterval = 1000; // first interval doubling discontinues
    p.configs = {2, 4};
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;

    // Phase A: settle on 2, then 3 stable intervals (the third also
    // detects the phase change after accumulating popularity).
    feed(c, 1000, cycle, 1.0, 6.0); // reference
    feed(c, 1000, cycle, 2.0, 6.0); // @2: the best
    ASSERT_EQ(c.targetClusters(), 4); // measured @2 -> explore @4
    feed(c, 1000, cycle, 1.0, 6.0); // @4 worse -> settle on 2
    ASSERT_EQ(c.targetClusters(), 2);
    ASSERT_TRUE(c.stable());
    feed(c, 1000, cycle, 2.0, 6.0);
    feed(c, 1000, cycle, 2.0, 6.0);
    feed(c, 1000, cycle, 2.0, 2.5); // change -> popularity[2] = 3000
    ASSERT_EQ(c.phaseChanges(), 1u);

    // Phase B: settle on 4, same stable time.
    feed(c, 1000, cycle, 1.0, 2.5); // reference
    feed(c, 1000, cycle, 1.0, 2.5); // @2: worse
    feed(c, 1000, cycle, 2.0, 2.5); // @4: best -> settle on 4
    ASSERT_EQ(c.targetClusters(), 4);
    ASSERT_TRUE(c.stable());
    feed(c, 1000, cycle, 2.0, 2.5);
    feed(c, 1000, cycle, 2.0, 2.5);
    feed(c, 1000, cycle, 2.0, 6.0); // change -> popularity[4] = 3000
    ASSERT_EQ(c.phaseChanges(), 2u);

    // Phase C: one more change pushes instability past THRESH2; the
    // doubled interval exceeds maxInterval and the algorithm gives up.
    feed(c, 1000, cycle, 1.0, 6.0); // reference
    feed(c, 1000, cycle, 1.0, 2.5); // change #3 -> discontinue
    ASSERT_TRUE(c.discontinued());
    EXPECT_EQ(c.targetClusters(), 2); // tie broken towards fewer clusters
}

TEST(IntervalIlp, ReattachResetsMeasurementState)
{
    IntervalIlpParams p;
    p.intervalLength = 1000;
    IntervalIlpController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    feed(c, 1000, cycle, 1.0, 6.0, 3.0, false); // -> 4 clusters
    feed(c, 1000, cycle, 1.0, 2.5, 3.0, false); // phase change
    ASSERT_GE(c.phaseChanges(), 1u);
    ASSERT_EQ(c.targetClusters(), 16);

    c.attach(16, 16);
    EXPECT_TRUE(c.measuring());
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_EQ(c.phaseChanges(), 0u);
    // A fresh run's first interval decides exactly like a new object's.
    feed(c, 1000, cycle, 1.0, 6.0, 3.0, false);
    EXPECT_EQ(c.targetClusters(), 4);
    EXPECT_EQ(c.phaseChanges(), 0u);
}

TEST(IntervalIlp, ReattachToWiderHardwareRegainsBigConfig)
{
    IntervalIlpParams p;
    p.intervalLength = 1000;
    IntervalIlpController c(p);
    c.attach(8, 8);   // clamps bigConfig to 8...
    c.attach(16, 16); // ...and a wider re-attach restores 16
    Cycle cycle = 0;
    feed(c, 1000, cycle, 1.0, 6.0, 3.0, /*distant=*/true);
    EXPECT_EQ(c.targetClusters(), 16);
}

TEST(Finegrain, ReattachForgetsLearnedTable)
{
    FinegrainParams p;
    p.branchStride = 1;
    p.ilpWindow = 18;
    p.samplesNeeded = 2;
    p.distantThreshold = 6;
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    for (int i = 0; i < 40; i++)
        commitBlock(c, 0x2000, 8, false, cycle);
    ASSERT_EQ(c.targetClusters(), 4);
    ASSERT_GT(c.reconfigPoints(), 0u);

    // A new run must not inherit the previous run's learned advice.
    c.attach(16, 16);
    EXPECT_EQ(c.reconfigPoints(), 0u);
    commitBlock(c, 0x2000, 8, false, cycle);
    EXPECT_EQ(c.targetClusters(), 16); // unknown again: run wide
    EXPECT_EQ(c.reconfigPoints(), 1u);
}

TEST(IntervalIlp, ThresholdBoundaryExact)
{
    // Exactly at the threshold: "not greater" keeps the small config.
    IntervalIlpParams p;
    p.intervalLength = 1000;
    p.distantPerMille = 500;
    IntervalIlpController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;
    // Alternate distant flags to hit exactly 500/1000.
    for (int i = 0; i < 1000; i++) {
        CommitEvent ev;
        ev.op = OpClass::IntAlu;
        ev.distant = (i % 2) == 0;
        ev.cycle = ++cycle;
        c.onCommit(ev);
    }
    EXPECT_EQ(c.targetClusters(), 4);
}

TEST(IntervalIlp, PaperThresholdBoundary160Per1000)
{
    // The paper's threshold: >160 distant instructions per
    // 1000-instruction interval keeps 16 clusters. Exactly 160 does
    // not ("not greater"), 161 does.
    for (int distant_count : {160, 161}) {
        IntervalIlpParams p;
        p.intervalLength = 1000;
        p.distantPerMille = 160;
        IntervalIlpController c(p);
        c.attach(16, 16);
        Cycle cycle = 0;
        for (int i = 0; i < 1000; i++) {
            CommitEvent ev;
            ev.op = OpClass::IntAlu;
            ev.distant = i < distant_count;
            ev.cycle = ++cycle;
            c.onCommit(ev);
        }
        EXPECT_EQ(c.targetClusters(), distant_count > 160 ? 16 : 4)
            << distant_count << " distant per 1000";
    }
}

TEST(Finegrain, DistantThresholdBoundaryExact)
{
    // A sampled branch whose following window holds exactly
    // distantThreshold distant instructions is advised the small
    // configuration; one more flips the advice to 16 clusters.
    for (int distant_count : {3, 4}) {
        FinegrainParams p;
        p.branchStride = 1;
        p.samplesNeeded = 1;
        p.ilpWindow = 6;
        p.distantThreshold = 3;
        FinegrainController c(p);
        c.attach(16, 16);
        Cycle cycle = 0;

        CommitEvent ev;
        ev.pc = 0x7000;
        ev.op = OpClass::CondBranch;
        ev.cycle = ++cycle;
        c.onCommit(ev); // the sampled branch enters the window

        // Exactly ilpWindow followers; the last one evicts the branch
        // and trains its table entry in a single sample.
        for (int i = 0; i < 6; i++) {
            ev.pc = 0x8000 + static_cast<Addr>(i) * 4;
            ev.op = OpClass::IntAlu;
            ev.distant = i < distant_count;
            ev.cycle = ++cycle;
            c.onCommit(ev);
        }

        // Revisit the branch: the installed advice takes effect.
        ev.pc = 0x7000;
        ev.op = OpClass::CondBranch;
        ev.distant = false;
        ev.cycle = ++cycle;
        c.onCommit(ev);
        EXPECT_EQ(c.targetClusters(), distant_count > 3 ? 16 : 4)
            << distant_count << " distant in the window";
    }
}

// ---------------------------------------------------------------------------
// Edge-case regressions: table aliasing and zero-IPC exploration
// ---------------------------------------------------------------------------

TEST(Finegrain, AliasedSlotKeepsResidentEntry)
{
    FinegrainParams p;
    p.branchStride = 1;
    p.ilpWindow = 18;
    p.samplesNeeded = 2;
    p.distantThreshold = 6;
    p.tableEntries = 4; // (pc >> 2) mod 4 indexing: easy to alias
    FinegrainController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;

    // Branch A learns "small" advice in its table slot.
    for (int i = 0; i < 40; i++)
        commitBlock(c, 0x2000, 8, false, cycle);
    ASSERT_EQ(c.targetClusters(), 4);
    ASSERT_EQ(c.tableConflicts(), 0u);

    // Branch B (A + 4 * tableEntries bytes) maps to the same slot with
    // distant work that would advise big. The resident entry must not
    // be evicted -- two hot branches sharing a slot would otherwise
    // ping-pong and neither could accumulate samplesNeeded. B's
    // samples are dropped and counted as conflicts...
    for (int i = 0; i < 40; i++)
        commitBlock(c, 0x2000 + 4 * 4, 8, true, cycle);
    EXPECT_GT(c.tableConflicts(), 0u);
    // ...so B stays unknown (runs wide while being measured)...
    EXPECT_EQ(c.targetClusters(), 16);

    // ...and A's learned advice still stands at its next visit.
    commitBlock(c, 0x2000, 8, false, cycle);
    EXPECT_EQ(c.targetClusters(), 4);
}

namespace {

/** One 1000-instruction interval with feed()'s op mix; `frozen` holds
 *  the clock still so the interval's measured IPC is zero. */
void
feedExploreInterval(IntervalExploreController &c, Cycle &cycle,
                    bool frozen)
{
    for (int i = 0; i < 1000; i++) {
        CommitEvent ev;
        ev.pc = 0x1000 + (i % 64) * 4;
        ev.op = i % 6 == 0 ? OpClass::CondBranch
              : i % 3 == 0 ? OpClass::Load
                           : OpClass::IntAlu;
        if (!frozen)
            cycle++;
        ev.cycle = cycle;
        c.onCommit(ev);
    }
}

} // namespace

TEST(Explore, ZeroIpcExplorationIsNotAdopted)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;

    // Reference interval + one interval per candidate config, all with
    // a frozen clock: every exploration interval measures zero IPC.
    // Adopting the "best" of those would enter the stable state with a
    // zero reference IPC, permanently disabling IPC-based phase
    // detection (the refIpc > 0 guard would never fire again).
    for (int i = 0; i < 5; i++)
        feedExploreInterval(c, cycle, true);
    EXPECT_EQ(c.failedExplorations(), 1u);
    EXPECT_FALSE(c.stable());

    // Once the clock advances again the controller re-explores and
    // adopts a real winner.
    for (int i = 0; i < 6; i++)
        feedExploreInterval(c, cycle, false);
    EXPECT_TRUE(c.stable());
    EXPECT_EQ(c.failedExplorations(), 1u);
}

// ---------------------------------------------------------------------------
// metricDiffers: the shared phase-test helper (controller.hh)
// ---------------------------------------------------------------------------

TEST(MetricDiffers, IntegralBoundaryExact)
{
    // Strictly-greater: a difference equal to the significance is not
    // a phase change; one count past it is.
    EXPECT_FALSE(metricDiffers(110, 100, 10.0));
    EXPECT_TRUE(metricDiffers(111, 100, 10.0));
}

TEST(MetricDiffers, SymmetricWhenSecondCountIsLarger)
{
    // Regression: the unsigned difference was once taken before the
    // comparison, so b > a wrapped to a huge value after the cast and
    // the decreasing direction misfired. Both directions must behave
    // identically.
    EXPECT_FALSE(metricDiffers(100, 110, 10.0));
    EXPECT_TRUE(metricDiffers(100, 111, 10.0));
    EXPECT_FALSE(metricDiffers(0, 10, 10.0));
    EXPECT_TRUE(metricDiffers(0, 11, 10.0));
}

TEST(MetricDiffers, FractionalSignificanceHonoured)
{
    // interval / metric_divisor is fractional for e.g. a 1050-long
    // interval: 10.5 must not truncate to 10. floor(sig) stays quiet,
    // ceil(sig) fires.
    EXPECT_FALSE(metricDiffers(110, 100, 10.5));
    EXPECT_TRUE(metricDiffers(111, 100, 10.5));
    EXPECT_FALSE(metricDiffers(100, 110, 10.5));
    EXPECT_TRUE(metricDiffers(100, 111, 10.5));
}

// ---------------------------------------------------------------------------
// Discontinue with an empty popularity ledger
// ---------------------------------------------------------------------------

TEST(Explore, DiscontinueWithEmptyLedgerPrefersFewestClusters)
{
    IntervalExploreParams p;
    p.initialInterval = 1000;
    p.maxInterval = 1500;
    // front() == 4 distinguishes the fewest-clusters fallback from the
    // old configs.back() bug (which would leave the widest machine on).
    p.configs = {4, 8, 16};
    IntervalExploreController c(p);
    c.attach(16, 16);
    Cycle cycle = 0;

    // Alternate the branch density every interval: every exploration
    // aborts on the reference mismatch before a stable interval can
    // complete, so the popularity ledger is still empty when the
    // interval doubles past the bound and the algorithm gives up.
    for (int i = 0; i < 40 && !c.discontinued(); i++)
        feed(c, 1000, cycle, 1.0, i % 2 ? 2.5 : 8.0);
    ASSERT_TRUE(c.discontinued());
    EXPECT_EQ(c.targetClusters(), 4);
}

// ---------------------------------------------------------------------------
// IneffectualityController
// ---------------------------------------------------------------------------

namespace {

/** Feed one decision interval in which the first `mispredicts` commits
 *  are mispredicted branches and the rest plain ALU ops. */
void
feedMisp(IneffectualityController &c, std::uint64_t n,
         std::uint64_t mispredicts)
{
    for (std::uint64_t i = 0; i < n; i++) {
        CommitEvent ev;
        ev.pc = 0x1000 + (i % 64) * 4;
        ev.op = i < mispredicts ? OpClass::CondBranch : OpClass::IntAlu;
        ev.mispredicted = i < mispredicts;
        ev.cycle = static_cast<Cycle>(i);
        c.onCommit(ev);
    }
}

IneffectualityParams
smallIneffParams()
{
    IneffectualityParams p;
    p.intervalLength = 1000;
    return p;
}

} // namespace

TEST(Ineffectuality, StartsFullyEnabled)
{
    IneffectualityController c;
    c.attach(16, 16);
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_EQ(c.intervals(), 0u);
}

TEST(Ineffectuality, GatesOneLadderStepPerDirtyInterval)
{
    // 6 mispredicts * 80 waste = 480 slots against 1000 committed:
    // fraction 480/1480 = 0.324 > 0.30 gates one rung per interval.
    IneffectualityController c(smallIneffParams());
    c.attach(16, 16);
    feedMisp(c, 1000, 6);
    EXPECT_EQ(c.targetClusters(), 8);
    feedMisp(c, 1000, 6);
    EXPECT_EQ(c.targetClusters(), 4);
    feedMisp(c, 1000, 6);
    EXPECT_EQ(c.targetClusters(), 2);
    // Ladder floor: still dirty, nowhere further down to go.
    feedMisp(c, 1000, 6);
    EXPECT_EQ(c.targetClusters(), 2);
    EXPECT_EQ(c.gateEvents(), 3u);
    EXPECT_EQ(c.intervals(), 4u);
}

TEST(Ineffectuality, UngatesOneStepPerCleanInterval)
{
    IneffectualityController c(smallIneffParams());
    c.attach(16, 16);
    feedMisp(c, 1000, 6);
    feedMisp(c, 1000, 6);
    ASSERT_EQ(c.targetClusters(), 4);
    feedMisp(c, 1000, 0);
    EXPECT_EQ(c.targetClusters(), 8);
    feedMisp(c, 1000, 0);
    EXPECT_EQ(c.targetClusters(), 16);
    // Ladder ceiling.
    feedMisp(c, 1000, 0);
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_EQ(c.ungateEvents(), 2u);
}

TEST(Ineffectuality, HysteresisBandHoldsConfiguration)
{
    // 3 mispredicts: fraction 240/1240 = 0.194 sits between the ungate
    // (0.15) and gate (0.30) thresholds -- no move in either direction.
    IneffectualityController c(smallIneffParams());
    c.attach(16, 16);
    feedMisp(c, 1000, 6);
    ASSERT_EQ(c.targetClusters(), 8);
    for (int i = 0; i < 4; i++)
        feedMisp(c, 1000, 3);
    EXPECT_EQ(c.targetClusters(), 8);
    EXPECT_EQ(c.gateEvents(), 1u);
    EXPECT_EQ(c.ungateEvents(), 0u);
}

TEST(Ineffectuality, ThresholdBoundariesAreStrict)
{
    // With waste 1000 per mispredict over a 1000-instruction interval,
    // one mispredict lands exactly on a 0.5/0.5 band edge: neither the
    // gate (strictly greater) nor the ungate (strictly less) may fire.
    IneffectualityParams p;
    p.intervalLength = 1000;
    p.wastePerMispredict = 1000.0;
    p.gateThreshold = 0.5;
    p.ungateThreshold = 0.5;
    IneffectualityController c(p);
    c.attach(16, 16);
    feedMisp(c, 1000, 2); // 2000/3000 = 0.667 > 0.5: gate to 8
    ASSERT_EQ(c.targetClusters(), 8);
    feedMisp(c, 1000, 1); // 1000/2000 = 0.5 exactly: hold
    EXPECT_EQ(c.targetClusters(), 8);
    EXPECT_EQ(c.gateEvents(), 1u);
    EXPECT_EQ(c.ungateEvents(), 0u);
    feedMisp(c, 1000, 0); // 0 < 0.5: ungate
    EXPECT_EQ(c.targetClusters(), 16);
}

TEST(Ineffectuality, ReattachResetsAllPerRunState)
{
    IneffectualityController c(smallIneffParams());
    c.attach(16, 16);
    for (int i = 0; i < 3; i++)
        feedMisp(c, 1000, 6);
    ASSERT_EQ(c.targetClusters(), 2);
    ASSERT_GT(c.predictedWastedFetch(), 0.0);

    c.attach(16, 16);
    EXPECT_EQ(c.targetClusters(), 16);
    EXPECT_EQ(c.intervals(), 0u);
    EXPECT_EQ(c.gateEvents(), 0u);
    EXPECT_EQ(c.ungateEvents(), 0u);
    EXPECT_EQ(c.predictedWastedFetch(), 0.0);
    EXPECT_EQ(c.lastWastedFraction(), 0.0);
    // The second run reproduces a fresh controller's decisions.
    feedMisp(c, 1000, 6);
    EXPECT_EQ(c.targetClusters(), 8);
}

TEST(Ineffectuality, AttachFiltersLadderPerHardware)
{
    IneffectualityController c(smallIneffParams());
    c.attach(4, 4);
    EXPECT_EQ(c.targetClusters(), 4);
    feedMisp(c, 1000, 6);
    EXPECT_EQ(c.targetClusters(), 2);
    // Re-attaching to wider hardware regains the dropped rungs.
    c.attach(16, 16);
    EXPECT_EQ(c.targetClusters(), 16);
}

// ---------------------------------------------------------------------------
// Oracle DP (solveOracleSchedule) and schedule replay
// ---------------------------------------------------------------------------

namespace {

/** Probe rows with the given per-interval cycle costs. */
std::vector<TimeSeriesRow>
probeRows(const std::vector<std::uint64_t> &costs)
{
    std::vector<TimeSeriesRow> rows;
    Cycle t = 0;
    for (std::uint64_t c : costs) {
        TimeSeriesRow r;
        r.startCycle = t;
        r.endCycle = t + c;
        r.instructions = 1000;
        rows.push_back(r);
        t += c;
    }
    return rows;
}

} // namespace

TEST(OracleDp, ZeroPenaltyPicksPerIntervalBest)
{
    std::vector<int> schedule = solveOracleSchedule(
        {2, 16},
        {probeRows({100, 300, 100}), probeRows({200, 100, 200})}, 0.0);
    EXPECT_EQ(schedule, (std::vector<int>{2, 16, 2}));
}

TEST(OracleDp, LargePenaltyCollapsesToBestSingleConfiguration)
{
    // Totals: config 2 costs 500, config 16 costs 450. A penalty far
    // above any per-interval saving forbids switching, so the whole
    // schedule is the cheaper constant.
    std::vector<int> schedule = solveOracleSchedule(
        {2, 16},
        {probeRows({100, 300, 100}), probeRows({200, 100, 150})},
        1000000.0);
    EXPECT_EQ(schedule, (std::vector<int>{16, 16, 16}));
}

TEST(OracleDp, CostTiePrefersFewerClusters)
{
    std::vector<int> schedule = solveOracleSchedule(
        {2, 4, 16},
        {probeRows({100, 100}), probeRows({100, 100}),
         probeRows({100, 100})},
        200.0);
    EXPECT_EQ(schedule, (std::vector<int>{2, 2}));
}

TEST(OracleDp, ShorterProbeReusesLastRowCost)
{
    // End-of-run jitter: the config-2 probe closed one interval fewer.
    // Its final row's cost stands in for the missing interval, where
    // config 16's measured 50 cycles then wins.
    std::vector<int> schedule = solveOracleSchedule(
        {2, 16},
        {probeRows({100, 100}), probeRows({200, 200, 50})}, 0.0);
    EXPECT_EQ(schedule, (std::vector<int>{2, 2, 16}));
}

TEST(OracleDp, AllProbesEmptyGivesEmptySchedule)
{
    EXPECT_TRUE(solveOracleSchedule({2, 16}, {{}, {}}, 0.0).empty());
}

namespace {

void
feedPlain(ReconfigController &c, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; i++) {
        CommitEvent ev;
        ev.pc = 0x1000;
        ev.op = OpClass::IntAlu;
        ev.cycle = static_cast<Cycle>(i);
        c.onCommit(ev);
    }
}

} // namespace

TEST(OracleReplay, FollowsScheduleByCommittedCount)
{
    OracleController c(100, {4, 8, 2});
    c.attach(16, 16);
    EXPECT_EQ(c.targetClusters(), 4);
    feedPlain(c, 100);
    EXPECT_EQ(c.targetClusters(), 8);
    feedPlain(c, 100);
    EXPECT_EQ(c.targetClusters(), 2);
    // Commits past the last slot hold its configuration.
    feedPlain(c, 500);
    EXPECT_EQ(c.targetClusters(), 2);
    EXPECT_EQ(c.committed(), 700u);
}

TEST(OracleReplay, ClampsScheduleToHardware)
{
    OracleController c(100, {16, 2});
    c.attach(4, 4);
    EXPECT_EQ(c.targetClusters(), 4);
    feedPlain(c, 100);
    EXPECT_EQ(c.targetClusters(), 2);
}

TEST(OracleReplay, EmptyScheduleDegeneratesToStatic)
{
    OracleController c(100, {});
    c.attach(16, 16);
    EXPECT_EQ(c.targetClusters(), 16);
    feedPlain(c, 1000);
    EXPECT_EQ(c.targetClusters(), 16);
    c.attach(8, 8);
    EXPECT_EQ(c.targetClusters(), 8);
}

TEST(OracleReplay, ReattachRestartsTheSchedule)
{
    OracleController c(100, {4, 8});
    c.attach(16, 16);
    feedPlain(c, 150);
    ASSERT_EQ(c.targetClusters(), 8);
    c.attach(16, 16);
    EXPECT_EQ(c.committed(), 0u);
    EXPECT_EQ(c.targetClusters(), 4);
}

// ---------------------------------------------------------------------------
// Controller registry: canonical keys and factories
// ---------------------------------------------------------------------------

TEST(Registry, CanonicalKeysSpellOutEffectiveDefaults)
{
    // The key contract: every parameter appears at its effective value
    // in sorted order, so relying on a default and passing it
    // explicitly produce the same identity.
    EXPECT_EQ(makeController("ivl-explore").key,
              "ivl-explore{interval=10000;max-interval=10000000}");
    EXPECT_EQ(makeController("ivl-explore",
                             {{"interval", "10000"},
                              {"max-interval", "10000000"}})
                  .key,
              makeController("ivl-explore").key);
    EXPECT_EQ(makeController("ivl-ilp").key,
              "ivl-ilp{distant-per-mille=300;interval=1000}");
    EXPECT_EQ(makeController("fg-branch").key,
              "fg-branch{samples=10;stride=5}");
    EXPECT_EQ(makeController("fg-subroutine").key,
              "fg-subroutine{samples=3}");
    EXPECT_EQ(makeController("static", {{"active", "4"}}).key,
              "static{active=4}");
    EXPECT_EQ(
        makeController("ineffectuality").key,
        "ineffectuality{gate=0.3;interval=10000;ungate=0.15;waste=80}");
}

TEST(Registry, ParameterOverridesLandInKeyAndController)
{
    ControllerHandle h =
        makeController("ineffectuality", {{"interval", "1000"},
                                          {"gate", "0.5"}});
    EXPECT_EQ(h.key,
              "ineffectuality{gate=0.5;interval=1000;ungate=0.15;"
              "waste=80}");
    std::unique_ptr<ReconfigController> c = h.make();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->name(), "ineffectuality");
}

TEST(Registry, EveryBuiltinPolicyBuildsAWorkingController)
{
    for (const std::string &policy : controllerPolicies()) {
        if (policy == "oracle")
            continue; // needs workload probes; covered in sim tests
        ControllerHandle h = makeController(policy);
        EXPECT_FALSE(h.key.empty()) << policy;
        ASSERT_NE(h.make, nullptr) << policy;
        std::unique_ptr<ReconfigController> c = h.make();
        ASSERT_NE(c, nullptr) << policy;
        c->attach(16, 16);
        feedPlain(*c, 100);
        int t = c->targetClusters();
        EXPECT_GE(t, 1) << policy;
        EXPECT_LE(t, 16) << policy;
    }
    EXPECT_TRUE(isControllerPolicy("ivl-explore"));
    EXPECT_FALSE(isControllerPolicy("no-such-policy"));
}

TEST(Registry, KeysKeepEveryDigitOfRealParameters)
{
    // Values that agree to six significant digits are still different
    // controllers, so they must not share a key (and with it cache and
    // checkpoint entries).
    std::string a =
        makeController("ineffectuality", {{"gate", "0.1234567"}}).key;
    std::string b =
        makeController("ineffectuality", {{"gate", "0.1234568"}}).key;
    EXPECT_NE(a, b);
    EXPECT_NE(a.find("gate=0.1234567;"), std::string::npos) << a;
    EXPECT_NE(b.find("gate=0.1234568;"), std::string::npos) << b;
    EXPECT_NE(makeController("ivl-ilp", {{"distant-per-mille", "300.0001"}})
                  .key,
              makeController("ivl-ilp").key);

    // The shortest round-trip spelling keeps today's short forms.
    EXPECT_EQ(canonicalNumber(0.3), "0.3");
    EXPECT_EQ(canonicalNumber(80.0), "80");
    EXPECT_EQ(canonicalNumber(10000.0), "10000");
    EXPECT_EQ(canonicalNumber(1e6), "1e+06");
    for (double v : {0.1 + 0.2, 1.0 / 3.0, 123.456, 1e-7})
        EXPECT_EQ(std::stod(canonicalNumber(v)), v) << v;
}

TEST(Registry, RejectsMalformedAndNegativeParameters)
{
    // "-1" once read as 2^64-1 for an unsigned parameter.
    EXPECT_THROW(makeController("ivl-explore", {{"interval", "-1"}}),
                 SimError);
    for (const char *bad : {"", "10k", " 10", "+10", "1e4", "0x10"})
        EXPECT_THROW(makeController("ivl-explore", {{"interval", bad}}),
                     SimError)
            << bad;
    EXPECT_THROW(makeController("fg-branch", {{"stride", "1000001"}}),
                 SimError);
    EXPECT_THROW(makeController("ineffectuality", {{"gate", "-0.5"}}),
                 SimError);
    EXPECT_THROW(makeController("ineffectuality", {{"gate", "nan"}}),
                 SimError);
    EXPECT_EQ(makeController("ivl-explore", {{"interval", "5000"}}).key,
              "ivl-explore{interval=5000;max-interval=10000000}");
}

TEST(Registry, UnknownPolicyAndParameterNamesThrow)
{
    // User errors: SimError, not an abort.
    EXPECT_THROW(makeController("no-such-policy"), SimError);
    EXPECT_THROW(makeController("ivl-explore", {{"intervl", "5000"}}),
                 SimError);
}

TEST(Registry, HandleFactoryIsReusable)
{
    ControllerHandle h = makeController("ivl-explore");
    std::unique_ptr<ReconfigController> a = h.make();
    std::unique_ptr<ReconfigController> b = h.make();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    // Independent instances: feeding one leaves the other untouched at
    // its attach-time target (the smallest candidate configuration).
    a->attach(16, 16);
    b->attach(16, 16);
    Cycle cycle = 0;
    feed(*a, 30000, cycle, 1.0);
    EXPECT_EQ(b->targetClusters(), 2);
}
