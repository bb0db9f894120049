/**
 * @file
 * Property-based fuzzing of the simulator (the slow validation suite;
 * registered with LABELS slow).
 *
 * Thousands of short randomized simulations -- random machine shapes,
 * controllers, and workloads -- run under a recording InvariantChecker;
 * any violation is shrunk to a minimal reproducer and reported as a
 * one-line FuzzCase string. Further properties ride on the same
 * generator: bit-identical determinism of repeated runs, the
 * controller attach() reset contract (a reused controller must
 * reproduce a fresh controller's run exactly -- the PR 1 state-leak
 * class), and idle-cycle-skip equivalence (fast-forwarding must be
 * invisible in every ProcessorStats field).
 *
 * Budget knobs (environment):
 *   CLUSTERSIM_FUZZ_RUNS  cases for the invariant sweep (default 250)
 *   CLUSTERSIM_FUZZ_SEED  generator seed (default 20030609)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "check/fuzz.hh"
#include "core/processor.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "workload/synthetic.hh"

using namespace clustersim;

namespace {

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

std::uint64_t
fuzzSeed()
{
    return envU64("CLUSTERSIM_FUZZ_SEED", 20030609);
}

/** Shrink a failing case and render an actionable failure message. */
std::string
reportFailure(const FuzzCase &c)
{
    FuzzCase small = shrinkCase(c);
    FuzzOutcome small_out = runFuzzCase(small);
    std::string msg = "invariant violation\n  original: " +
                      describeCase(c) + "\n  shrunk:   " +
                      describeCase(small) + "\n";
    for (const auto &v : small_out.violations)
        msg += "  [" + v.rule + "] " + v.detail + "\n";
    return msg;
}

/** Metrics that must be bit-identical between two runs. */
void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.reconfigurations, b.reconfigurations) << what;
    EXPECT_EQ(a.flushWritebacks, b.flushWritebacks) << what;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << what;
    EXPECT_DOUBLE_EQ(a.l1MissRate, b.l1MissRate) << what;
    EXPECT_DOUBLE_EQ(a.branchAccuracy, b.branchAccuracy) << what;
    EXPECT_DOUBLE_EQ(a.avgActiveClusters, b.avgActiveClusters) << what;
    EXPECT_DOUBLE_EQ(a.avgRegCommLatency, b.avgRegCommLatency) << what;
    EXPECT_DOUBLE_EQ(a.distantFraction, b.distantFraction) << what;
}

/**
 * Run a fuzz case's simulation at full ProcessorStats resolution
 * (runSimulation only surfaces the coarser SimResult) with idle-cycle
 * skipping forced to @p skip.
 */
ProcessorStats
runCaseStats(const FuzzCase &c, bool skip, Cycle *end_cycle)
{
    ProcessorConfig cfg = fuzzConfig(c);
    cfg.idleSkip = skip;
    WorkloadSpec w = fuzzWorkload(c);
    SyntheticWorkload trace(w);
    std::unique_ptr<ReconfigController> ctrl = fuzzController(c);
    Processor proc(cfg, &trace, ctrl.get());
    proc.run(c.warmup);
    proc.resetStats();
    proc.run(c.measure);
    *end_cycle = proc.cycle();
    return proc.stats();
}

/** Every ProcessorStats field, compared exactly. */
void
expectSameStats(const ProcessorStats &a, const ProcessorStats &b,
                const std::string &what)
{
    // Walk ProcessorStats::fields(), so a new statistic is compared
    // without touching this function.
    struct Collect {
        std::vector<std::pair<const char *, double>> values;
        std::vector<std::pair<const char *, std::uint64_t>> counts;
        void
        operator()(const char *n, double x)
        {
            values.push_back({n, x});
        }
        void
        operator()(const char *n, std::uint64_t x)
        {
            counts.push_back({n, x});
        }
    };
    Collect ca, cb;
    ProcessorStats sa = a, sb = b;
    sa.fields(ca);
    sb.fields(cb);
    ASSERT_EQ(ca.counts.size(), cb.counts.size());
    ASSERT_EQ(ca.values.size(), cb.values.size());
    for (std::size_t i = 0; i < ca.counts.size(); i++)
        EXPECT_EQ(ca.counts[i].second, cb.counts[i].second)
            << what << ": " << ca.counts[i].first;
    for (std::size_t i = 0; i < ca.values.size(); i++)
        EXPECT_DOUBLE_EQ(ca.values[i].second, cb.values[i].second)
            << what << ": " << ca.values[i].first;
}

} // namespace

// ---------------------------------------------------------------------------
// The headline property: no randomized simulation violates any
// microarchitectural invariant.
// ---------------------------------------------------------------------------

TEST(Properties, RandomizedSimsHoldAllInvariants)
{
    const std::uint64_t runs = envU64("CLUSTERSIM_FUZZ_RUNS", 250);
    Rng rng(fuzzSeed());
    std::uint64_t total_probes = 0;
    for (std::uint64_t i = 0; i < runs; i++) {
        FuzzCase c = randomCase(rng);
        FuzzOutcome out = runFuzzCase(c);
        total_probes += out.probes;
        if (!out.ok)
            FAIL() << "case " << i << ": " << reportFailure(c);
    }
#if CLUSTERSIM_OBSERVE_ENABLED
    // The sweep is only meaningful if the probes actually fired.
    EXPECT_GT(total_probes, runs * 100);
#else
    EXPECT_EQ(total_probes, 0u);
#endif
}

// ---------------------------------------------------------------------------
// Determinism: the same case twice gives bit-identical metrics.
// ---------------------------------------------------------------------------

TEST(Properties, RandomizedSimsAreDeterministic)
{
    const std::uint64_t runs =
        envU64("CLUSTERSIM_FUZZ_DETERMINISM_RUNS", 25);
    Rng rng(fuzzSeed() ^ 0xd7e2b157ULL);
    for (std::uint64_t i = 0; i < runs; i++) {
        FuzzCase c = randomCase(rng);
        ProcessorConfig cfg = fuzzConfig(c);
        WorkloadSpec w = fuzzWorkload(c);
        std::unique_ptr<ReconfigController> ctrl1 = fuzzController(c);
        SimResult a = runSimulation(cfg, w, ctrl1.get(), c.warmup,
                                    c.measure);
        std::unique_ptr<ReconfigController> ctrl2 = fuzzController(c);
        SimResult b = runSimulation(cfg, w, ctrl2.get(), c.warmup,
                                    c.measure);
        expectSameResult(a, b, "case " + std::to_string(i) + ": " +
                                   describeCase(c));
    }
}

// ---------------------------------------------------------------------------
// Idle-cycle skipping: fast-forwarding over provably idle stretches
// must be invisible -- a skip-enabled run and a forced
// step-every-cycle run of the same case give bit-identical
// ProcessorStats and final cycle counts.
// ---------------------------------------------------------------------------

TEST(Properties, IdleSkipMatchesStepEveryCycle)
{
    const std::uint64_t runs =
        envU64("CLUSTERSIM_FUZZ_IDLESKIP_RUNS", 60);
    Rng rng(fuzzSeed() ^ 0x1d1e5c1bULL);
    for (std::uint64_t i = 0; i < runs; i++) {
        FuzzCase c = randomCase(rng);
        Cycle end_skip = 0;
        Cycle end_step = 0;
        ProcessorStats a = runCaseStats(c, true, &end_skip);
        ProcessorStats b = runCaseStats(c, false, &end_step);
        std::string what =
            "case " + std::to_string(i) + ": " + describeCase(c);
        EXPECT_EQ(end_skip, end_step) << what;
        expectSameStats(a, b, what);
    }
}

// ---------------------------------------------------------------------------
// Controller reuse: attach() must fully reset per-run state, so a
// reused controller reproduces a fresh controller's run exactly.
// ---------------------------------------------------------------------------

TEST(Properties, ReusedControllersMatchFreshControllers)
{
    const std::uint64_t runs =
        envU64("CLUSTERSIM_FUZZ_REUSE_RUNS", 15);
    Rng rng(fuzzSeed() ^ 0x5e1f5e1fULL);
    std::uint64_t exercised = 0;
    for (std::uint64_t i = 0; exercised < runs && i < runs * 8; i++) {
        FuzzCase c = randomCase(rng);
        if (c.controller == FuzzController::None)
            continue;
        exercised++;
        ProcessorConfig cfg = fuzzConfig(c);
        WorkloadSpec w = fuzzWorkload(c);

        // One controller serving two runs back to back...
        std::unique_ptr<ReconfigController> reused = fuzzController(c);
        runSimulation(cfg, w, reused.get(), c.warmup, c.measure);
        SimResult second = runSimulation(cfg, w, reused.get(), c.warmup,
                                         c.measure);

        // ...must match a brand-new controller's run bit for bit.
        std::unique_ptr<ReconfigController> fresh = fuzzController(c);
        SimResult clean = runSimulation(cfg, w, fresh.get(), c.warmup,
                                        c.measure);
        expectSameResult(clean, second,
                         "case " + std::to_string(i) + ": " +
                             describeCase(c));
    }
    EXPECT_EQ(exercised, runs);
}

// ---------------------------------------------------------------------------
// The shrinker itself: it must preserve failure and terminate.
// ---------------------------------------------------------------------------

TEST(Properties, ShrinkerPreservesPassingCases)
{
    // A passing case cannot be shrunk (precondition assert); validate
    // the other direction: derived config/workload of shrunk mutations
    // stay structurally valid by running a couple of mutations by hand.
    FuzzCase c;
    c.numClusters = 16;
    c.grid = true;
    c.decentralized = true;
    c.controller = FuzzController::Explore;
    c.benchmark = -1;
    c.numPhases = 3;
    c.phaseSeed = 99;
    c.warmup = 1000;
    c.measure = 2000;
    FuzzOutcome out = runFuzzCase(c);
    EXPECT_TRUE(out.ok) << "seed case unexpectedly fails";
}
