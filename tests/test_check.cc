/**
 * @file
 * Unit tests for the validation subsystem: every InvariantChecker rule
 * triggered directly in recording mode, the ObserverScope installation
 * contract, limit derivation from processor configurations, the JSON
 * reader, and the golden-run differential machinery.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/fuzz.hh"
#include "check/golden.hh"
#include "check/invariant.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "core/dyn_inst.hh"
#include "memory/lsq.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"

using namespace clustersim;

namespace {

/** A recording checker configured with the paper's default limits. */
InvariantChecker
recordingChecker()
{
    InvariantChecker c(/*fail_fast=*/false);
    c.configure(CheckLimits{});
    return c;
}

/** A ROB head as the commit stage sees it. */
DynInst
head(InstSeqNum seq, bool completed, Cycle complete_cycle)
{
    DynInst inst;
    inst.seq = seq;
    inst.completed = completed;
    inst.completeCycle = complete_cycle;
    return inst;
}

/** The single rule id of a checker expected to hold one violation. */
std::string
soleRule(const InvariantChecker &c)
{
    if (c.violations().size() != 1)
        return "(" + std::to_string(c.violations().size()) +
               " violations)";
    return c.violations()[0].rule;
}

} // namespace

// ---------------------------------------------------------------------------
// Candidate set and limit derivation
// ---------------------------------------------------------------------------

TEST(CheckLimitsTest, CandidateSetClampsAndDedups)
{
    EXPECT_EQ(InvariantChecker::candidateSet(16),
              (std::vector<int>{2, 4, 8, 16}));
    EXPECT_EQ(InvariantChecker::candidateSet(8),
              (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(InvariantChecker::candidateSet(3),
              (std::vector<int>{2, 3}));
    EXPECT_EQ(InvariantChecker::candidateSet(2),
              (std::vector<int>{2}));
}

TEST(CheckLimitsTest, DerivedFromConfig)
{
    CheckLimits lim = makeCheckLimits(clusteredConfig(16), 8);
    EXPECT_EQ(lim.numClusters, 16);
    EXPECT_EQ(lim.intIssueQueue, 15);
    EXPECT_EQ(lim.fpIssueQueue, 15);
    EXPECT_EQ(lim.intRegs, 30);
    EXPECT_EQ(lim.fpRegs, 30);
    EXPECT_EQ(lim.lsqPerCluster, 15);
    EXPECT_FALSE(lim.lsqDistributed);
    EXPECT_EQ(lim.robCapacity, 480);
    EXPECT_EQ(lim.maxHops, 8);
    EXPECT_EQ(lim.hardHopBound, 8); // 16-cluster ring
    EXPECT_EQ(lim.minActiveClusters, 2); // ceil(32 arch / 30 phys)
}

TEST(CheckLimitsTest, HardHopBoundsMatchPaperTopologies)
{
    EXPECT_EQ(makeCheckLimits(
                  clusteredConfig(16, InterconnectKind::Grid), 6)
                  .hardHopBound,
              6);
    // Non-paper cluster counts have no theoretical bound.
    EXPECT_EQ(makeCheckLimits(clusteredConfig(8), 4).hardHopBound, 0);
    EXPECT_EQ(makeCheckLimits(monolithicConfig(16), 0).hardHopBound, 0);
}

TEST(CheckLimitsTest, DecentralizedCacheSetsDistributedLsq)
{
    CheckLimits lim = makeCheckLimits(
        clusteredConfig(16, InterconnectKind::Ring, true), 8);
    EXPECT_TRUE(lim.lsqDistributed);
}

TEST(CheckLimitsTest, ConfigureRejectsHopsAboveTheoreticalBound)
{
    InvariantChecker c(/*fail_fast=*/false);
    CheckLimits lim;
    lim.hardHopBound = 6;
    lim.maxHops = 7; // a 16-cluster grid must never report 7 hops
    c.configure(lim);
    EXPECT_EQ(soleRule(c), "hop-bound");
}

// ---------------------------------------------------------------------------
// Cluster resource rules
// ---------------------------------------------------------------------------

TEST(InvariantRules, IqOccupancyWithinTableOneLimits)
{
    InvariantChecker c = recordingChecker();
    c.onClusterIq(0, false, 15); // at the limit: fine
    c.onClusterIq(3, true, 15);
    EXPECT_TRUE(c.ok());
    c.onClusterIq(2, false, 16);
    EXPECT_EQ(soleRule(c), "iq-occupancy");
}

TEST(InvariantRules, IqOccupancyRejectsNegative)
{
    InvariantChecker c = recordingChecker();
    c.onClusterIq(0, true, -1);
    EXPECT_EQ(soleRule(c), "iq-occupancy");
}

TEST(InvariantRules, RegisterOccupancyWithinTableOneLimits)
{
    InvariantChecker c = recordingChecker();
    c.onClusterRegs(0, false, 30);
    c.onClusterRegs(0, true, 30);
    EXPECT_TRUE(c.ok());
    c.onClusterRegs(1, true, 31);
    EXPECT_EQ(soleRule(c), "reg-occupancy");
}

// ---------------------------------------------------------------------------
// ROB rules
// ---------------------------------------------------------------------------

TEST(InvariantRules, RobAllocationMustBeDense)
{
    InvariantChecker c = recordingChecker();
    c.onRobAllocate(1, 1, 480);
    c.onRobAllocate(2, 2, 480);
    EXPECT_TRUE(c.ok());
    c.onRobAllocate(4, 3, 480); // skipped seq 3
    EXPECT_EQ(soleRule(c), "rob-alloc-order");
}

TEST(InvariantRules, RobCapacityEnforced)
{
    InvariantChecker c = recordingChecker();
    c.onRobAllocate(1, 481, 480);
    EXPECT_EQ(soleRule(c), "rob-capacity");
}

TEST(InvariantRules, RobRetireMustBeInOrder)
{
    InvariantChecker c = recordingChecker();
    c.onRobRetire(1, 0);
    c.onRobRetire(2, 0);
    EXPECT_TRUE(c.ok());
    c.onRobRetire(4, 0);
    EXPECT_EQ(soleRule(c), "rob-commit-order");
}

TEST(InvariantRules, CommitRequiresCompletion)
{
    InvariantChecker c = recordingChecker();
    c.onCommit(head(1, /*completed=*/false, 0), 100);
    EXPECT_EQ(soleRule(c), "commit-incomplete");
}

TEST(InvariantRules, CommitMustNotPrecedeCompletion)
{
    InvariantChecker c = recordingChecker();
    c.onCommit(head(1, true, /*complete_cycle=*/120), /*now=*/100);
    EXPECT_EQ(soleRule(c), "commit-time");
}

TEST(InvariantRules, CommitMustBeInProgramOrder)
{
    InvariantChecker c = recordingChecker();
    c.onCommit(head(1, true, 50), 100);
    c.onCommit(head(3, true, 50), 101); // skipped seq 2
    EXPECT_EQ(soleRule(c), "commit-order");
}

// ---------------------------------------------------------------------------
// LSQ rules
// ---------------------------------------------------------------------------

TEST(InvariantRules, CentralizedLsqOccupancyCap)
{
    InvariantChecker c(/*fail_fast=*/false);
    CheckLimits lim;
    lim.numClusters = 1;
    lim.lsqPerCluster = 1; // cap the centralized queue at one entry
    c.configure(lim);

    LoadStoreQueue lsq(/*distributed=*/false, 1, 15);
    lsq.allocate(1, false, 0, 1);
    c.onLsqAllocate(lsq);
    EXPECT_TRUE(c.ok());
    lsq.allocate(2, false, 0, 1);
    c.onLsqAllocate(lsq);
    EXPECT_EQ(soleRule(c), "lsq-occupancy");
}

TEST(InvariantRules, DistributedLsqOccupancyWithinLimits)
{
    InvariantChecker c = recordingChecker();
    LoadStoreQueue lsq(/*distributed=*/true, 4, 15);
    for (InstSeqNum s = 1; s <= 10; s++)
        lsq.allocate(s, (s % 3) == 0, static_cast<int>(s) % 4, 4);
    c.onLsqAllocate(lsq);
    EXPECT_TRUE(c.ok());
}

TEST(InvariantRules, LoadMustNotPassUnresolvedStore)
{
    // Zyuban/Kogge dummy-slot rule: issuing a load past a store whose
    // address is still uncomputed is the exact bug the dummy slots
    // exist to prevent.
    InvariantChecker c = recordingChecker();
    LoadStoreQueue lsq(/*distributed=*/true, 4, 15);
    lsq.allocate(1, /*is_store=*/true, 0, 4);
    lsq.allocate(2, /*is_store=*/false, 1, 4);
    c.onLoadAccess(lsq, 2);
    EXPECT_EQ(soleRule(c), "lsq-dummy-slot");
}

TEST(InvariantRules, LoadMayIssueOnceOlderStoreResolves)
{
    InvariantChecker c = recordingChecker();
    LoadStoreQueue lsq(/*distributed=*/true, 4, 15);
    lsq.allocate(1, true, 0, 4);
    lsq.allocate(2, false, 1, 4);
    lsq.setAddress(1, 0x100, 0, 10, 12); // dummy slots released
    c.onLoadAccess(lsq, 2);
    EXPECT_TRUE(c.ok());
}

TEST(InvariantRules, LsqReleaseMustBeMonotonic)
{
    InvariantChecker c = recordingChecker();
    LoadStoreQueue lsq(/*distributed=*/false, 16, 15);
    c.onLsqRelease(lsq, 5);
    c.onLsqRelease(lsq, 6);
    EXPECT_TRUE(c.ok());
    c.onLsqRelease(lsq, 6); // replayed release
    EXPECT_EQ(soleRule(c), "lsq-release-order");
}

// ---------------------------------------------------------------------------
// Interconnect rules
// ---------------------------------------------------------------------------

TEST(InvariantRules, TransferEndpointsMustBeClusters)
{
    InvariantChecker c = recordingChecker();
    c.onTransfer(0, 15, 8, 8, 0);
    EXPECT_TRUE(c.ok());
    c.onTransfer(0, 16, 1, 8, 0);
    EXPECT_EQ(soleRule(c), "transfer-endpoints");
}

TEST(InvariantRules, HopCountBoundedByTopology)
{
    InvariantChecker c = recordingChecker();
    c.onTransfer(0, 1, 9, 8, 0); // longer than the topology's diameter
    EXPECT_EQ(soleRule(c), "hop-bound");
}

TEST(InvariantRules, HopCountMustBePositive)
{
    InvariantChecker c = recordingChecker();
    c.onTransfer(0, 1, 0, 8, 0); // the network never moves data in 0 hops
    EXPECT_EQ(soleRule(c), "hop-bound");
}

TEST(InvariantRules, HopCountBoundedByPaperTopologyMaximum)
{
    InvariantChecker c(/*fail_fast=*/false);
    CheckLimits lim;
    lim.hardHopBound = 6; // 4x4 grid
    lim.maxHops = 6;
    c.configure(lim);
    c.onTransfer(0, 15, 6, 8, 0);
    EXPECT_TRUE(c.ok());
    c.onTransfer(0, 15, 7, 8, 0); // within the claimed topology max but
    EXPECT_EQ(soleRule(c), "hop-bound"); // above the grid's bound
}

// ---------------------------------------------------------------------------
// Reconfiguration rules
// ---------------------------------------------------------------------------

TEST(InvariantRules, ControllerAttachMustMatchHardware)
{
    InvariantChecker c = recordingChecker();
    c.onControllerAttach("interval-explore", 16, 16);
    EXPECT_TRUE(c.ok());
    c.onControllerAttach("interval-explore", 8, 8);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.violations().back().rule, "controller-attach");
}

TEST(InvariantRules, ControllerTargetMustBeInCandidateSet)
{
    InvariantChecker c = recordingChecker();
    for (int t : {2, 4, 8, 16})
        c.onControllerTarget("interval-explore", t);
    EXPECT_TRUE(c.ok());
    c.onControllerTarget("interval-explore", 3);
    EXPECT_EQ(soleRule(c), "controller-candidates");
}

TEST(InvariantRules, ControllerTargetMustBeInHardwareRange)
{
    InvariantChecker c = recordingChecker();
    c.onControllerTarget("interval-explore", 0);
    c.onControllerTarget("interval-explore", 17);
    ASSERT_EQ(c.violations().size(), 2u);
    EXPECT_EQ(c.violations()[0].rule, "controller-target");
    EXPECT_EQ(c.violations()[1].rule, "controller-target");
}

TEST(InvariantRules, StaticControllersExemptFromCandidateSet)
{
    InvariantChecker c = recordingChecker();
    c.onControllerTarget("static-5", 5); // any legal count is fine
    EXPECT_TRUE(c.ok());
}

TEST(InvariantRules, RepeatedTargetDeduplicated)
{
    // The target probe fires every cycle; a stuck-bad target must not
    // flood the violation list.
    InvariantChecker c = recordingChecker();
    for (int i = 0; i < 50; i++)
        c.onControllerTarget("interval-explore", 3);
    EXPECT_EQ(c.violations().size(), 1u);
    // A different controller name re-checks.
    c.onControllerTarget("finegrain-branch", 3);
    EXPECT_EQ(c.violations().size(), 2u);
}

TEST(InvariantRules, ReconfigTargetRange)
{
    InvariantChecker c = recordingChecker();
    c.onReconfigApply(16, 4, 100, 10, /*decentralized=*/false);
    EXPECT_TRUE(c.ok());
    c.onReconfigApply(16, 0, 0, 0, false);
    EXPECT_EQ(soleRule(c), "reconfig-range");
}

TEST(InvariantRules, DecentralizedReconfigRequiresFullDrain)
{
    InvariantChecker c = recordingChecker();
    c.onReconfigApply(16, 4, 0, 0, /*decentralized=*/true);
    EXPECT_TRUE(c.ok());
    c.onReconfigApply(16, 4, 3, 0, true);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.violations().back().rule, "reconfig-drain");
    c.onReconfigApply(4, 16, 0, 2, true);
    EXPECT_EQ(c.violations().back().rule, "reconfig-drain");
}

TEST(InvariantRules, ActiveClusterCountWithinRange)
{
    InvariantChecker c = recordingChecker();
    c.onCycleEnd(2);
    c.onCycleEnd(16);
    EXPECT_TRUE(c.ok());
    c.onCycleEnd(0);
    EXPECT_EQ(soleRule(c), "active-range");
}

TEST(InvariantRules, ActiveClusterCountBelowViableMinimum)
{
    // One active Table 1 cluster has 30 physical registers for 32
    // architectural ones: rename deadlocks, so the checker flags it.
    InvariantChecker c = recordingChecker();
    c.onCycleEnd(1);
    EXPECT_EQ(soleRule(c), "active-range");
}

TEST(InvariantRules, ReconfigTargetBelowViableMinimum)
{
    InvariantChecker c = recordingChecker();
    c.onReconfigApply(16, 2, 0, 0, /*decentralized=*/false);
    EXPECT_TRUE(c.ok());
    c.onReconfigApply(2, 1, 0, 0, false);
    EXPECT_EQ(soleRule(c), "reconfig-range");
}

// ---------------------------------------------------------------------------
// Checker mechanics
// ---------------------------------------------------------------------------

TEST(CheckerMechanics, RecordingModeCapsViolations)
{
    InvariantChecker c = recordingChecker();
    for (int i = 0; i < 500; i++)
        c.onClusterIq(0, false, 99);
    EXPECT_EQ(c.violations().size(), 100u);
    EXPECT_EQ(c.probeCount(), 500u);
}

TEST(CheckerMechanics, ResetClearsViolationsAndSequencing)
{
    InvariantChecker c = recordingChecker();
    c.onRobRetire(5, 0);
    c.onClusterIq(0, false, 99);
    ASSERT_FALSE(c.ok());
    c.reset();
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.probeCount(), 0u);
    c.onRobRetire(9, 0); // no stale "after seq 5" ordering state
    EXPECT_TRUE(c.ok());
}

TEST(CheckerMechanics, SummaryNamesEveryRule)
{
    InvariantChecker c = recordingChecker();
    c.onClusterIq(0, false, 99);
    c.onRobRetire(7, 0);
    c.onRobRetire(7, 0);
    std::string s = c.summary();
    EXPECT_NE(s.find("[iq-occupancy]"), std::string::npos);
    EXPECT_NE(s.find("[rob-commit-order]"), std::string::npos);
}

TEST(CheckerMechanics, FailFastPanicsOnFirstViolation)
{
    EXPECT_DEATH_IF_SUPPORTED(
        {
            InvariantChecker c(/*fail_fast=*/true);
            c.configure(CheckLimits{});
            c.onClusterIq(0, false, 99);
        },
        "iq-occupancy");
}

TEST(CheckerMechanics, ScopeInstallsAndRestores)
{
    EXPECT_EQ(currentObserver(), nullptr);
    InvariantChecker outer(false);
    {
        ObserverScope a(outer);
        EXPECT_EQ(currentObserver(), &outer);
        InvariantChecker inner(false);
        {
            ObserverScope b(inner);
            EXPECT_EQ(currentObserver(), &inner);
        }
        EXPECT_EQ(currentObserver(), &outer);
    }
    EXPECT_EQ(currentObserver(), nullptr);
}

TEST(CheckerMechanics, DefaultScopeInstallsACheckerOnlyInObserveBuilds)
{
    {
        DefaultObserverScope scope;
        EXPECT_EQ(currentObserver() != nullptr,
                  CLUSTERSIM_OBSERVE_ENABLED != 0);
    }
    EXPECT_EQ(currentObserver(), nullptr);
    // A caller's own observer wins over the default.
    InvariantChecker own(false);
    ObserverScope mine(own);
    DefaultObserverScope scope;
    EXPECT_EQ(currentObserver(), &own);
}

// ---------------------------------------------------------------------------
// Live probes (observe builds only)
// ---------------------------------------------------------------------------

#if CLUSTERSIM_OBSERVE_ENABLED
TEST(LiveProbes, ShortRunDrivesProbesAndHoldsInvariants)
{
    InvariantChecker c(/*fail_fast=*/false);
    {
        ObserverScope scope(c);
        runSimulation(clusteredConfig(16), makeBenchmark("gzip"),
                      nullptr, 1000, 5000);
    }
    EXPECT_GT(c.probeCount(), 1000u);
    EXPECT_TRUE(c.ok()) << c.summary();
}

TEST(LiveProbes, DistributedLsqRunHoldsInvariants)
{
    InvariantChecker c(/*fail_fast=*/false);
    {
        ObserverScope scope(c);
        std::unique_ptr<ReconfigController> ctrl =
            makeExploreController();
        runSimulation(
            clusteredConfig(16, InterconnectKind::Ring, true),
            makeBenchmark("swim"), ctrl.get(), 1000, 5000);
    }
    EXPECT_GT(c.probeCount(), 1000u);
    EXPECT_TRUE(c.ok()) << c.summary();
}
#else
TEST(LiveProbes, ProbesCompiledOutInNormalBuilds)
{
    InvariantChecker c(/*fail_fast=*/false);
    {
        ObserverScope scope(c);
        runSimulation(clusteredConfig(4), makeBenchmark("gzip"),
                      nullptr, 500, 2000);
    }
    EXPECT_EQ(c.probeCount(), 0u);
}
#endif

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(JsonReader, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_EQ(parseJson("true").asBool(), true);
    EXPECT_EQ(parseJson("false").asBool(), false);
    EXPECT_EQ(parseJson("42").asInt(), 42);
    EXPECT_EQ(parseJson("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(parseJson("0.25").asDouble(), 0.25);
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(JsonReader, IntegralVsRealLexing)
{
    EXPECT_TRUE(parseJson("42").isIntegral());
    EXPECT_FALSE(parseJson("42.0").isIntegral());
    EXPECT_FALSE(parseJson("4e2").isIntegral());
    // The integer view of an integral number is exact.
    EXPECT_EQ(parseJson("18446744073709551615").isIntegral(), false);
    EXPECT_EQ(parseJson("9223372036854775807").asInt(),
              9223372036854775807LL);
}

TEST(JsonReader, ParsesNestedStructure)
{
    JsonValue v = parseJson(
        "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true}, \"d\": null}");
    ASSERT_TRUE(v.isObject());
    EXPECT_TRUE(v.has("a"));
    EXPECT_FALSE(v.has("z"));
    const auto &arr = v.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(arr[1].asDouble(), 2.5);
    EXPECT_EQ(arr[2].asString(), "x");
    EXPECT_TRUE(v.at("b").at("c").asBool());
    EXPECT_TRUE(v.at("d").isNull());
}

TEST(JsonReader, StringEscapes)
{
    JsonValue v = parseJson("\"a\\\"b\\\\c\\nd\\te\\u0041\"");
    EXPECT_EQ(v.asString(), "a\"b\\c\nd\teA");
}

TEST(JsonReader, RoundTripsWriterDoubles)
{
    double val = 0.1 + 0.2;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", val);
    EXPECT_EQ(parseJson(buf).asDouble(), val); // bit-exact
}

TEST(JsonReader, NonFiniteWriterOutputRoundTrips)
{
    // The writer spells non-finite doubles as null (JSON has no NaN
    // literal); numberOrNaN() is the lossless way back.
    JsonWriter w;
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .value(1.5)
        .endArray();
    JsonValue v = parseJson(w.str());
    const auto &arr = v.asArray();
    ASSERT_EQ(arr.size(), 4u);
    for (int i = 0; i < 3; i++) {
        EXPECT_TRUE(arr[i].isNull());
        EXPECT_TRUE(std::isnan(arr[i].numberOrNaN())) << i;
    }
    EXPECT_DOUBLE_EQ(arr[3].numberOrNaN(), 1.5);
    // Only numbers and null qualify; anything else is still a type
    // error, not a silent NaN.
    EXPECT_THROW(parseJson("\"x\"").numberOrNaN(), SimError);
    EXPECT_THROW(parseJson("true").numberOrNaN(), SimError);
}

TEST(JsonReader, MalformedInputThrows)
{
    EXPECT_THROW(parseJson(""), SimError);
    EXPECT_THROW(parseJson("{"), SimError);
    EXPECT_THROW(parseJson("[1,]"), SimError);
    EXPECT_THROW(parseJson("{\"a\":1,}"), SimError);
    EXPECT_THROW(parseJson("\"unterminated"), SimError);
    EXPECT_THROW(parseJson("1 2"), SimError); // trailing content
    EXPECT_THROW(parseJson("nul"), SimError);
}

TEST(JsonReader, NestingIsBoundedAtMaxDepth)
{
    auto arrays = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(parseJson(arrays(maxJsonDepth)));
    EXPECT_THROW(parseJson(arrays(maxJsonDepth + 1)), SimError);
    // Objects count levels the same way.
    std::string objects;
    for (std::size_t i = 0; i < maxJsonDepth; i++)
        objects += "{\"a\":";
    objects += "0" + std::string(maxJsonDepth, '}');
    EXPECT_NO_THROW(parseJson(objects));
    EXPECT_THROW(parseJson("[" + objects + "]"), SimError);
    // Far past the bound, closed or not: an error, not a stack
    // overflow.
    EXPECT_THROW(parseJson(arrays(100000)), SimError);
    std::string members;
    for (int i = 0; i < 100000; i++)
        members += "{\"a\":";
    EXPECT_THROW(parseJson(members), SimError);
}

TEST(JsonReader, KindMismatchThrows)
{
    JsonValue v = parseJson("{\"a\": 1.5}");
    EXPECT_THROW(v.at("missing"), SimError);
    EXPECT_THROW(v.asArray(), SimError);
    EXPECT_THROW(v.at("a").asInt(), SimError); // not integral
}

// ---------------------------------------------------------------------------
// Golden diff
// ---------------------------------------------------------------------------

TEST(GoldenDiffTest, IdenticalDocumentsMatch)
{
    const char *doc = "{\"a\": 1, \"b\": [1.5, \"x\"], \"c\": true}";
    EXPECT_TRUE(
        diffGoldenReports(parseJson(doc), parseJson(doc)).empty());
}

TEST(GoldenDiffTest, CountersMustMatchExactly)
{
    auto diffs = diffGoldenReports(parseJson("{\"cycles\": 1000}"),
                                   parseJson("{\"cycles\": 1001}"));
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].path, "cycles");
    EXPECT_EQ(diffs[0].expected, "1000");
    EXPECT_EQ(diffs[0].actual, "1001");
}

TEST(GoldenDiffTest, RatesMatchWithinTolerance)
{
    // Inside the default relative tolerance of 1e-9.
    EXPECT_TRUE(diffGoldenReports(parseJson("{\"ipc\": 1.25}"),
                                  parseJson("{\"ipc\": 1.25000000001}"))
                    .empty());
    // Outside it.
    EXPECT_EQ(diffGoldenReports(parseJson("{\"ipc\": 1.25}"),
                                parseJson("{\"ipc\": 1.2501}"))
                  .size(),
              1u);
}

TEST(GoldenDiffTest, ExplicitToleranceRespected)
{
    GoldenTolerance loose;
    loose.relTol = 0.01;
    EXPECT_TRUE(diffGoldenReports(parseJson("{\"ipc\": 1.25}"),
                                  parseJson("{\"ipc\": 1.2501}"), loose)
                    .empty());
}

TEST(GoldenDiffTest, KindMismatchReported)
{
    auto diffs = diffGoldenReports(parseJson("{\"a\": 1}"),
                                   parseJson("{\"a\": \"1\"}"));
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].expected.find("<number>"), std::string::npos);
    EXPECT_NE(diffs[0].actual.find("<string>"), std::string::npos);
}

TEST(GoldenDiffTest, MissingKeysReportedBothWays)
{
    auto diffs = diffGoldenReports(parseJson("{\"a\": 1, \"b\": 2}"),
                                   parseJson("{\"a\": 1, \"c\": 3}"));
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0].path, "b");
    EXPECT_EQ(diffs[0].actual, "<missing>");
    EXPECT_EQ(diffs[1].path, "c");
    EXPECT_EQ(diffs[1].expected, "<missing>");
}

TEST(GoldenDiffTest, ArrayTailsAndPathsReported)
{
    auto diffs = diffGoldenReports(
        parseJson("{\"runs\": [{\"ipc\": 1.0}, {\"ipc\": 2.0}]}"),
        parseJson("{\"runs\": [{\"ipc\": 9.0}]}"));
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0].path, "runs[0].ipc");
    EXPECT_EQ(diffs[1].path, "runs[1]");
    EXPECT_EQ(diffs[1].actual, "<missing>");
}

TEST(GoldenDiffTest, FormatIsOneLinePerDiff)
{
    std::vector<GoldenDiff> diffs = {{"runs[0].ipc", "1", "2"},
                                     {"schema", "\"a\"", "\"b\""}};
    std::string s = formatGoldenDiffs(diffs);
    EXPECT_EQ(s,
              "runs[0].ipc: golden=1 current=2\n"
              "schema: golden=\"a\" current=\"b\"\n");
}

// ---------------------------------------------------------------------------
// Golden run set and report
// ---------------------------------------------------------------------------

TEST(GoldenSet, CoversBenchmarksTimesVariants)
{
    std::vector<RunPoint> points = goldenRunPoints();
    EXPECT_EQ(points.size(), 24u); // 3 benchmarks x 8 variants
    for (const RunPoint &p : points) {
        EXPECT_FALSE(p.label.empty());
        EXPECT_FALSE(p.workload.name.empty());
        EXPECT_GT(p.measure, 0u);
    }
    EXPECT_EQ(goldenFileName(), "default.json");
}

TEST(GoldenSet, ReportParsesAndDiffsCleanAgainstItself)
{
    // Two runs of the first few golden points must produce reports the
    // differ engine sees as identical (the determinism contract the
    // whole harness rests on).
    std::vector<RunPoint> points = goldenRunPoints();
    points.resize(4);
    SweepOptions opts;
    opts.threads = 2;
    std::string a = goldenReportJson(points, runSweep(points, opts));
    std::string b = goldenReportJson(points, runSweep(points, opts));
    EXPECT_EQ(a, b);

    JsonValue doc = parseJson(a);
    EXPECT_EQ(doc.at("schema").asString(), "clustersim-golden-v1");
    EXPECT_EQ(doc.at("run_points").asInt(), 4);
    EXPECT_EQ(doc.at("runs").asArray().size(), 4u);
    EXPECT_TRUE(doc.at("runs").asArray()[0].has("metrics"));
    EXPECT_TRUE(diffGoldenReports(doc, parseJson(b)).empty());
}

// ---------------------------------------------------------------------------
// Fuzz case derivation (fast pieces; the loop lives in the property
// suite)
// ---------------------------------------------------------------------------

TEST(FuzzCases, RandomCasesAreValid)
{
    Rng rng(42);
    for (int i = 0; i < 200; i++) {
        FuzzCase c = randomCase(rng);
        EXPECT_GE(c.numClusters, 2);
        EXPECT_LE(c.numClusters, 16);
        EXPECT_GE(c.measure, 1u);
        ProcessorConfig cfg = fuzzConfig(c);
        EXPECT_EQ(cfg.numClusters, c.numClusters);
        WorkloadSpec w = fuzzWorkload(c);
        EXPECT_FALSE(w.name.empty());
        EXPECT_FALSE(w.phases.empty());
    }
}

TEST(FuzzCases, DerivationIsDeterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 20; i++) {
        FuzzCase x = randomCase(a);
        FuzzCase y = randomCase(b);
        EXPECT_EQ(describeCase(x), describeCase(y));
    }
}

TEST(FuzzCases, CleanCaseProducesNoViolations)
{
    FuzzCase c;
    c.benchmark = 0;
    c.warmup = 200;
    c.measure = 1000;
    FuzzOutcome out = runFuzzCase(c);
    EXPECT_TRUE(out.ok);
#if CLUSTERSIM_OBSERVE_ENABLED
    EXPECT_GT(out.probes, 0u);
#else
    EXPECT_EQ(out.probes, 0u);
#endif
}
