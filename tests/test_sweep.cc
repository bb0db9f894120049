/**
 * @file
 * Tests for the parallel sweep engine and its structured metrics
 * export: JSON writer correctness, deterministic per-point seeding,
 * bit-identical results across repeated runs and across thread
 * counts, controller reuse across runs (the attach() state-reset
 * contract), and the named presets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/oracle.hh"
#include "sim/checkpoint.hh"
#include "sim/oracle_policy.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace clustersim;

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(Json, ObjectsArraysAndFields)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "x");
    w.field("n", 3);
    w.field("big", std::uint64_t{18446744073709551615ULL});
    w.field("flag", true);
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("nested").beginObject().field("pi", 0.5).endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"x\",\"n\":3,"
              "\"big\":18446744073709551615,\"flag\":true,"
              "\"list\":[1,2],\"nested\":{\"pi\":0.5}}");
}

TEST(Json, StringEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.field("k", "a\"b\\c\nd\te\x01");
    w.endObject();
    EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}

TEST(Json, DoublesRoundTrip)
{
    double v = 0.1 + 0.2; // not exactly 0.3
    JsonWriter w;
    w.beginArray().value(v).endArray();
    std::string s = w.str();
    double back = std::stod(s.substr(1, s.size() - 2));
    EXPECT_EQ(back, v); // bit-exact via %.17g
}

TEST(Json, NonFiniteBecomesNull)
{
    JsonWriter w;
    w.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(std::numeric_limits<double>::quiet_NaN())
        .endArray();
    EXPECT_EQ(w.str(), "[null,null]");
}

// ---------------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------------

TEST(SweepSeed, DeterministicAndDecorrelated)
{
    std::uint64_t a = sweepSeed(1, "gzip", "static-4");
    EXPECT_EQ(a, sweepSeed(1, "gzip", "static-4"));
    EXPECT_NE(a, sweepSeed(1, "gzip", "static-16"));
    EXPECT_NE(a, sweepSeed(1, "swim", "static-4"));
    EXPECT_NE(a, sweepSeed(2, "gzip", "static-4"));
    // Concatenation ambiguity must not collide.
    EXPECT_NE(sweepSeed(1, "ab", "c"), sweepSeed(1, "a", "bc"));
    EXPECT_NE(sweepSeed(0, "", ""), 0u);
}

TEST(SweepSeed, PresetGridSeedsUniqueNonzeroAndStable)
{
    // Across every planned run point of every named preset, distinct
    // (base seed, benchmark, tag or label) identities must map to
    // distinct seeds, the same identity (benchmarks and tags recur
    // across presets) must map to the same seed, and no derived seed
    // may be zero — a zero would collapse to the workload RNG's
    // degenerate stream (the `h ? h : 1` fixup in sweepSeed exists for
    // exactly this).
    std::map<std::uint64_t, std::string> seen;
    for (const std::string &name : sweepPresetNames()) {
        std::vector<RunPoint> points = makeSweepPreset(name);
        std::vector<PlannedPoint> plan = planPoints(points, true);
        for (std::size_t i = 0; i < points.size(); i++) {
            const RunPoint &p = points[i];
            std::uint64_t s = plan[i].seed;
            EXPECT_NE(s, 0u) << name << "/" << plan[i].label;
            std::string id =
                std::to_string(p.workload.seed) + "|" + p.workload.name +
                "|" + (p.seedTag.empty() ? plan[i].label : p.seedTag);
            auto [it, inserted] = seen.emplace(s, id);
            EXPECT_TRUE(inserted || it->second == id)
                << "seed collision between " << id << " and "
                << it->second;
        }
    }
    // Sanity: the grid really is large enough to make this meaningful.
    // Per benchmark: table3's one label, fig3's four, smoke's two, the
    // "paper" stream and the "tournament" stream.
    EXPECT_EQ(seen.size(), 9u * (1 + 4 + 2 + 1 + 1));
}

// ---------------------------------------------------------------------------
// Engine determinism
// ---------------------------------------------------------------------------

namespace {

std::vector<RunPoint>
smallGrid()
{
    std::vector<RunPoint> points;
    for (const char *bench : {"gzip", "swim", "vpr"}) {
        for (int n : {4, 16}) {
            RunPoint p;
            p.label = "static-" + std::to_string(n);
            p.cfg = staticSubsetConfig(n);
            p.workload = makeBenchmark(bench);
            p.warmup = 10000;
            p.measure = 30000;
            points.push_back(std::move(p));
        }
    }
    return points;
}

/** Fields that must be bit-identical between two runs. */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); i++) {
        const SimResult &x = a.runs[i].result;
        const SimResult &y = b.runs[i].result;
        EXPECT_EQ(a.runs[i].seed, b.runs[i].seed) << i;
        EXPECT_EQ(x.benchmark, y.benchmark) << i;
        EXPECT_EQ(x.config, y.config) << i;
        EXPECT_EQ(x.cycles, y.cycles) << i;
        EXPECT_EQ(x.instructions, y.instructions) << i;
        EXPECT_EQ(x.reconfigurations, y.reconfigurations) << i;
        // Doubles must match bit-for-bit, not just approximately.
        EXPECT_DOUBLE_EQ(x.ipc, y.ipc) << i;
        EXPECT_DOUBLE_EQ(x.l1MissRate, y.l1MissRate) << i;
        EXPECT_DOUBLE_EQ(x.branchAccuracy, y.branchAccuracy) << i;
        EXPECT_DOUBLE_EQ(x.avgActiveClusters, y.avgActiveClusters) << i;
    }
}

} // namespace

TEST(Sweep, RepeatedRunsBitIdentical)
{
    SweepOptions opts;
    opts.threads = 1;
    SweepResult a = runSweep(smallGrid(), opts);
    SweepResult b = runSweep(smallGrid(), opts);
    expectIdentical(a, b);
}

TEST(Sweep, ThreadCountDoesNotChangeResults)
{
    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;
    SweepResult a = runSweep(smallGrid(), serial);
    SweepResult b = runSweep(smallGrid(), parallel);
    EXPECT_EQ(a.threads, 1);
    expectIdentical(a, b);
}

TEST(Sweep, ResultsInSubmissionOrder)
{
    std::vector<RunPoint> points = smallGrid();
    SweepOptions opts;
    opts.threads = 4;
    SweepResult res = runSweep(points, opts);
    ASSERT_EQ(res.runs.size(), points.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        EXPECT_EQ(res.runs[i].result.benchmark,
                  points[i].workload.name);
        EXPECT_EQ(res.runs[i].result.config, points[i].label);
    }
}

TEST(Sweep, DynamicControllersGetFreshInstancePerRun)
{
    // The same factory serves all runs; every run must behave as if it
    // had a brand-new controller, so two identical points give
    // identical results even when they execute on different workers.
    std::vector<RunPoint> points;
    for (int i = 0; i < 4; i++) {
        RunPoint p;
        p.label = "ivl-explore";
        p.cfg = clusteredConfig(16);
        p.workload = makeBenchmark("gzip");
        p.makeController = [] {
            IntervalExploreParams ep;
            ep.initialInterval = 1000;
            return std::make_unique<IntervalExploreController>(ep);
        };
        p.warmup = 10000;
        p.measure = 40000;
        points.push_back(std::move(p));
    }
    SweepOptions opts;
    opts.threads = 4;
    SweepResult res = runSweep(points, opts);
    for (std::size_t i = 1; i < res.runs.size(); i++) {
        EXPECT_EQ(res.runs[i].result.cycles, res.runs[0].result.cycles);
        EXPECT_EQ(res.runs[i].result.reconfigurations,
                  res.runs[0].result.reconfigurations);
    }
}

TEST(Sweep, OnCompleteSeesEveryRun)
{
    std::vector<RunPoint> points = smallGrid();
    SweepOptions opts;
    opts.threads = 2;
    std::vector<bool> seen(points.size(), false);
    opts.onComplete = [&seen](std::size_t i, const SimResult &) {
        seen[i] = true;
    };
    runSweep(points, opts);
    for (std::size_t i = 0; i < seen.size(); i++)
        EXPECT_TRUE(seen[i]) << i;
}

TEST(Sweep, RunTimeIncludesControllerFactory)
{
    // A point's factory is part of its cost -- the oracle runs its probe
    // simulations there -- so a slow factory must show in the run's
    // wallSeconds and hence in cpuSeconds() and speedup().
    const std::chrono::milliseconds factoryTime(50);
    const double factorySeconds = 0.05;
    RunPoint p = smallGrid()[0];
    p.warmup = 1000;
    p.measure = 2000;
    p.makeController = [factoryTime] {
        std::this_thread::sleep_for(factoryTime);
        return std::unique_ptr<ReconfigController>();
    };
    SweepOptions opts;
    opts.threads = 1;
    SweepResult res = runSweep({p}, opts);
    ASSERT_EQ(res.runs.size(), 1u);
    EXPECT_GE(res.runs[0].wallSeconds, factorySeconds);
    EXPECT_GE(res.cpuSeconds(), factorySeconds);
    EXPECT_LE(res.runs[0].wallSeconds, res.wallSeconds);
}

TEST(Sweep, ConcurrentCallbackStress)
{
    // TSan-targeted: hammer the progress-callback and the
    // result-aggregation paths from many workers with tiny runs. The
    // engine promises onComplete is serialized and that every slot of
    // out.runs is written by exactly one worker; the callback below
    // mutates shared state with no locking of its own, so a broken
    // serialization (or a torn slot write) is a data race ThreadSanitizer
    // flags and ASan never can. Several rounds vary the interleavings.
    for (int round = 0; round < 3; round++) {
        std::vector<RunPoint> points;
        for (int i = 0; i < 24; i++) {
            RunPoint p;
            p.label = "stress-" + std::to_string(i % 4);
            p.cfg = staticSubsetConfig(i % 2 ? 4 : 8);
            p.workload = makeBenchmark(i % 2 ? "gzip" : "swim");
            p.warmup = 500;
            p.measure = 1500;
            points.push_back(std::move(p));
        }

        SweepOptions opts;
        opts.threads = 8;
        std::size_t calls = 0;
        std::vector<std::size_t> order;
        std::vector<bool> seen(points.size(), false);
        opts.onComplete = [&](std::size_t i, const SimResult &r) {
            // unsynchronized on purpose: relies on the engine's
            // serialization promise
            calls++;
            order.push_back(i);
            EXPECT_FALSE(seen[i]) << "duplicate completion " << i;
            seen[i] = true;
            EXPECT_GT(r.cycles, 0u) << i;
        };

        SweepResult res = runSweep(points, opts);

        EXPECT_EQ(calls, points.size());
        EXPECT_EQ(order.size(), points.size());
        ASSERT_EQ(res.runs.size(), points.size());
        for (std::size_t i = 0; i < points.size(); i++) {
            EXPECT_TRUE(seen[i]) << i;
            // aggregation is in submission order regardless of which
            // worker ran the point or when it finished
            EXPECT_EQ(res.runs[i].result.benchmark,
                      points[i].workload.name) << i;
            EXPECT_EQ(res.runs[i].result.config, points[i].label) << i;
            EXPECT_GT(res.runs[i].result.cycles, 0u) << i;
        }
    }
}

TEST(Sweep, SmokeReportByteIdenticalAcrossJobCounts)
{
    // The full JSON report (timing fields omitted) must be
    // byte-identical between a serial and a parallel execution of the
    // smoke preset -- the property `tools/sweep --jobs N --no-timing`
    // exposes and CI pins down with cmp.
    // Shortened windows: the property is about report bytes, not the
    // metrics themselves (CI runs the real preset through the tool).
    std::vector<RunPoint> points = makeSweepPreset("smoke", 5000, 20000);
    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;
    std::string a = sweepReportJson("smoke", points,
                                    runSweep(points, serial), false);
    std::string b = sweepReportJson("smoke", points,
                                    runSweep(points, parallel), false);
    EXPECT_EQ(a, b);
    // Sanity: the timing fields really are gone, and nothing else.
    EXPECT_EQ(a.find("wall_seconds"), std::string::npos);
    EXPECT_EQ(a.find("threads"), std::string::npos);
    EXPECT_NE(a.find("\"ipc_geomean\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Controller reuse across runs (the attach() reset contract)
// ---------------------------------------------------------------------------

TEST(Sweep, ReattachedControllerReproducesFirstRun)
{
    // A sweep naturally reuses a controller object for a second run;
    // attach() must reset all per-run state so the second run's
    // decisions (and thus the whole simulation) are bit-identical.
    WorkloadSpec w = makeBenchmark("gzip");
    IntervalExploreParams p;
    p.initialInterval = 1000;
    p.maxInterval = 8000; // small enough to discontinue within the run
    IntervalExploreController ctrl(p);

    SimResult first = runSimulation(clusteredConfig(16), w, &ctrl,
                                    10000, 60000);
    SimResult second = runSimulation(clusteredConfig(16), w, &ctrl,
                                     10000, 60000);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.reconfigurations, second.reconfigurations);
    EXPECT_DOUBLE_EQ(first.ipc, second.ipc);
    EXPECT_DOUBLE_EQ(first.avgActiveClusters,
                     second.avgActiveClusters);
}

// ---------------------------------------------------------------------------
// Structured export
// ---------------------------------------------------------------------------

TEST(Sweep, SimResultToJsonHasAllMetrics)
{
    SimResult r;
    r.benchmark = "gzip";
    r.config = "static-4";
    r.ipc = 1.25;
    r.instructions = 1000;
    r.cycles = 800;
    std::string s = toJson(r);
    EXPECT_NE(s.find("\"benchmark\":\"gzip\""), std::string::npos);
    EXPECT_NE(s.find("\"config\":\"static-4\""), std::string::npos);
    EXPECT_NE(s.find("\"ipc\":1.25"), std::string::npos);
    EXPECT_NE(s.find("\"instructions\":1000"), std::string::npos);
    EXPECT_NE(s.find("\"cycles\":800"), std::string::npos);
    for (const char *key :
         {"mispredict_interval", "branch_accuracy", "l1_miss_rate",
          "avg_active_clusters", "reconfigurations",
          "flush_writebacks", "avg_reg_comm_latency",
          "distant_fraction", "bank_pred_accuracy"})
        EXPECT_NE(s.find("\"" + std::string(key) + "\""),
                  std::string::npos)
            << key;
}

TEST(Sweep, ReportSchemaComplete)
{
    std::vector<RunPoint> points = smallGrid();
    points.resize(2);
    SweepOptions opts;
    opts.threads = 1;
    SweepResult res = runSweep(points, opts);
    std::string s = sweepReportJson("unit", points, res);

    for (const char *key :
         {"\"schema\":\"clustersim-sweep-v1\"", "\"sweep\":",
          "\"name\":\"unit\"", "\"threads\":1", "\"run_points\":2",
          "\"wall_seconds\"", "\"cpu_seconds\"",
          "\"parallel_speedup\"", "\"runs\":[", "\"index\":0",
          "\"seed\"", "\"warmup\":10000", "\"measure\":30000",
          "\"metrics\":", "\"aggregates\":", "\"ipc_amean\"",
          "\"ipc_geomean\"", "\"avg_active_clusters_amean\""})
        EXPECT_NE(s.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

TEST(Presets, SweepPresetNamesAllBuild)
{
    const auto &names = sweepPresetNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &n : names) {
        std::vector<RunPoint> pts = makeSweepPreset(n);
        EXPECT_FALSE(pts.empty()) << n;
        for (const RunPoint &p : pts) {
            EXPECT_FALSE(p.label.empty()) << n;
            EXPECT_FALSE(p.workload.name.empty()) << n;
            EXPECT_GT(p.measure, 0u) << n;
        }
    }
}

TEST(Presets, SweepPresetShapes)
{
    // benchmarks x variants for each paper artifact.
    EXPECT_EQ(makeSweepPreset("table3").size(), 9u);
    EXPECT_EQ(makeSweepPreset("fig3").size(), 36u);
    EXPECT_EQ(makeSweepPreset("fig5").size(), 54u);
    EXPECT_EQ(makeSweepPreset("fig6").size(), 45u);
    EXPECT_EQ(makeSweepPreset("fig7").size(), 45u);
    EXPECT_EQ(makeSweepPreset("fig8").size(), 27u);
    EXPECT_EQ(makeSweepPreset("sensitivity").size(), 108u);
    EXPECT_EQ(makeSweepPreset("commcost").size(), 54u);
    EXPECT_EQ(makeSweepPreset("ablation").size(), 81u);
}

TEST(Presets, ComparisonPresetsRaceOneStreamPerBenchmark)
{
    // The paper compares every organization on the same program: in
    // these presets all points of one benchmark plan one seed.
    for (const char *name : {"fig5", "fig6", "fig7", "fig8", "sensitivity",
                             "commcost", "ablation"}) {
        std::vector<RunPoint> points = makeSweepPreset(name);
        std::vector<PlannedPoint> plan = planPoints(points, true);
        std::map<std::string, std::uint64_t> seed_of;
        for (std::size_t i = 0; i < points.size(); i++) {
            auto it =
                seed_of.emplace(points[i].workload.name, plan[i].seed)
                    .first;
            EXPECT_EQ(it->second, plan[i].seed)
                << name << ": " << points[i].workload.name << " "
                << points[i].label;
        }
        EXPECT_EQ(seed_of.size(), 9u) << name;
    }
}

TEST(Presets, EveryPresetRunsAndSummarizes)
{
    for (const std::string &name : sweepPresetNames()) {
        std::vector<RunPoint> points = makeSweepPreset(name, 500, 1000);
        SweepOptions opts;
        opts.threads = 4;
        SweepResult res = runSweep(points, opts);
        std::string out = summarizeSweep(points, res).format();
        for (const RunPoint &p : points) {
            EXPECT_NE(out.find(p.label), std::string::npos)
                << name << ": " << p.label;
            EXPECT_NE(out.find(p.workload.name), std::string::npos)
                << name << ": " << p.workload.name;
        }
    }
}

TEST(Presets, SweepPresetOverridesRunLengths)
{
    std::vector<RunPoint> pts = makeSweepPreset("table3", 5000, 77777);
    for (const RunPoint &p : pts) {
        EXPECT_EQ(p.warmup, 5000u);
        EXPECT_EQ(p.measure, 77777u);
    }
}

TEST(Presets, ControllerFactoriesProduceNamedSchemes)
{
    EXPECT_EQ(makeExploreController()->name(), "interval-explore");
    EXPECT_EQ(makeIlpController(1000)->name(), "interval-ilp-1000");
    EXPECT_EQ(makeFinegrainController()->name(), "finegrain-branch");
    EXPECT_EQ(makeSubroutineController()->name(),
              "finegrain-subroutine");
}

// ---------------------------------------------------------------------------
// Controller tournament preset
// ---------------------------------------------------------------------------

TEST(Tournament, GridRacesSixKeyedPoliciesPerBenchmarkOnOneStream)
{
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 2000, 3000);
    ASSERT_FALSE(points.empty());
    EXPECT_EQ(points.size() % 6, 0u);

    std::map<std::string, std::set<std::string>> labels;
    bool sawOracleKey = false;
    for (const RunPoint &p : points) {
        // Every competitor is built through the registry: a dynamic
        // controller with a non-empty canonical key, so every point
        // can share warmups and be served from the result cache.
        EXPECT_NE(p.makeController, nullptr) << p.label;
        EXPECT_FALSE(p.controllerKey.empty()) << p.label;
        EXPECT_TRUE(pointCacheable(p)) << p.label;
        EXPECT_EQ(p.seedTag, "tournament") << p.label;
        labels[p.workload.name].insert(p.label);
        if (p.controllerKey.rfind("oracle{", 0) == 0)
            sawOracleKey = true;
    }
    EXPECT_TRUE(sawOracleKey);
    for (const auto &[bench, set] : labels)
        EXPECT_EQ(set.size(), 6u) << bench;

    // The shared seedTag makes all six policies of one benchmark race
    // the *same* instruction stream -- the precondition for exact
    // head-to-head comparison and per-benchmark oracle dominance.
    std::vector<PlannedPoint> plan = planPoints(points, true);
    std::map<std::string, std::set<std::uint64_t>> seeds;
    for (std::size_t i = 0; i < points.size(); i++)
        seeds[points[i].workload.name].insert(plan[i].seed);
    for (const auto &[bench, set] : seeds)
        EXPECT_EQ(set.size(), 1u) << bench;
}

TEST(Tournament, ReportByteIdenticalAcrossEnginesAndRanked)
{
    // Both per-point paths: the inline generator (no store), and
    // replay plus warm-and-store, then restore, through a checkpoint
    // store on four workers.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    SweepOptions serial;
    serial.threads = 1;
    std::string a = sweepReportJson("tournament", points,
                                    runSweep(points, serial), false);
    char tmpl[] = "/tmp/clustersim-tourney-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    {
        WarmupCheckpointStore store(std::string(tmpl) + "/ckpt");
        SweepOptions parallel;
        parallel.threads = 4;
        parallel.checkpoints = &store;
        for (const char *pass : {"cold", "warm"})
            EXPECT_EQ(a, sweepReportJson("tournament", points,
                                         runSweep(points, parallel),
                                         false))
                << pass;
        // An oracle point reports its race's winner, so it neither
        // stores nor restores a warmup.
        EXPECT_EQ(store.stats().hits,
                  points.size() - allBenchmarks().size());
    }
    std::filesystem::remove_all(tmpl);

    // The tournament report carries the ranked table: one row per
    // policy with the scoring fields.
    EXPECT_NE(a.find("\"ranking\":["), std::string::npos);
    EXPECT_NE(a.find("\"rank\":1,\"policy\":"), std::string::npos);
    EXPECT_NE(a.find("\"ipc_geomean\""), std::string::npos);
    EXPECT_NE(a.find("\"leakage_savings_mean\""), std::string::npos);
    for (const char *policy :
         {"ivl-explore", "ivl-ilp-10K", "fg-branch", "fg-subroutine",
          "ineffectuality", "oracle"})
        EXPECT_NE(a.find("\"policy\":\"" + std::string(policy) + "\""),
                  std::string::npos)
            << policy;
}

TEST(Tournament, OracleBoundsEveryReactivePolicyPerBenchmark)
{
    // The oracle is best-of by construction: its candidate set contains
    // every reactive competitor's recorded per-commit trajectory, whose
    // replay reproduces that run bit-exactly on the shared stream. Its
    // measured IPC therefore matches or beats every reactive policy on
    // *each* benchmark, not just in aggregate.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    SweepOptions opts;
    SweepResult res = runSweep(points, opts);
    ASSERT_EQ(res.runs.size(), points.size());

    std::map<std::string, double> oracle;
    std::map<std::string, std::uint64_t> oracle_cycles;
    for (std::size_t i = 0; i < points.size(); i++) {
        if (points[i].label == "oracle") {
            oracle[points[i].workload.name] = res.runs[i].result.ipc;
            oracle_cycles[points[i].workload.name] =
                res.runs[i].result.cycles;
        }
    }
    ASSERT_FALSE(oracle.empty());
    for (std::size_t i = 0; i < points.size(); i++) {
        if (points[i].label == "oracle")
            continue;
        const std::string &bench = points[i].workload.name;
        ASSERT_TRUE(oracle.count(bench)) << bench;
        EXPECT_GE(oracle[bench] + 1e-9, res.runs[i].result.ipc)
            << bench << " / " << points[i].label;
        // The exact bound is on measure-window cycles: a window ends on
        // the first cycle past its target, so IPC can trail by a hair.
        EXPECT_LE(oracle_cycles[bench], res.runs[i].result.cycles)
            << bench << " / " << points[i].label;
    }
}

namespace {

/** Per-point payloads of a finished sweep, in submission order. */
std::vector<std::string>
payloads(const std::vector<RunPoint> &points, const SweepResult &res)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < points.size(); i++)
        out.push_back(pointPayloadJson(res.runs[i].result,
                                       res.runs[i].seed, points[i].warmup,
                                       points[i].measure));
    return out;
}

SweepResult
runOn(const std::vector<RunPoint> &points, int threads)
{
    SweepOptions opts;
    opts.threads = threads;
    return runSweep(points, opts);
}

} // namespace

TEST(Tournament, OracleCandidatesAreItsSiblingPoints)
{
    // The oracle reuses a sibling's run only when their identities are
    // equal, so a drift between the preset and the candidate lineup
    // would silently bring the re-simulation back.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    std::vector<PlannedPoint> plan = planPoints(points, true);
    std::map<std::pair<std::string, std::string>, std::string> identity;
    for (std::size_t i = 0; i < points.size(); i++)
        identity[{points[i].workload.name, plan[i].label}] =
            pointIdentityKey(points[i], plan[i].label, plan[i].seed);

    std::size_t oracles = 0;
    for (std::size_t i = 0; i < points.size(); i++) {
        std::optional<OraclePolicyParams> op =
            oracleParamsFromKey(points[i].controllerKey);
        if (!op)
            continue;
        oracles++;
        EXPECT_EQ(op->seed, plan[i].seed) << op->bench;
        for (const ReactiveCompetitor &c : reactiveCompetitors()) {
            RunPoint cand = reactiveCandidatePoint(*op, c);
            const std::string &sibling = identity[{op->bench, c.label}];
            EXPECT_EQ(pointIdentityKey(cand, c.label, op->seed), sibling)
                << op->bench << " / " << c.label;
        }
    }
    EXPECT_EQ(oracles, allBenchmarks().size());
}

TEST(Tournament, OracleAloneMatchesOracleAmongItsSiblings)
{
    // Among its siblings an oracle point reads their measured runs;
    // alone (a served one-point task) it runs every candidate itself.
    // The payload must not tell the two apart.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    std::vector<std::string> one = payloads(points, runOn(points, 1));
    std::vector<std::string> four = payloads(points, runOn(points, 4));
    std::size_t oracles = 0;
    for (std::size_t i = 0; i < points.size(); i++) {
        if (!oracleParamsFromKey(points[i].controllerKey))
            continue;
        oracles++;
        std::vector<RunPoint> alone = {points[i]};
        std::string payload = payloads(alone, runOn(alone, 1))[0];
        EXPECT_EQ(payload, one[i]) << points[i].workload.name;
        EXPECT_EQ(payload, four[i]) << points[i].workload.name;
    }
    EXPECT_EQ(oracles, allBenchmarks().size());
}

TEST(Tournament, ReversedPointsGiveTheSamePayloads)
{
    // Reversed, every oracle precedes its siblings: the engine has to
    // hold it back (and on four workers wait for siblings in flight)
    // rather than rely on submission order.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    std::vector<RunPoint> reversed(points.rbegin(), points.rend());
    for (int threads : {1, 4}) {
        std::vector<std::string> forward =
            payloads(points, runOn(points, threads));
        std::vector<std::string> backward =
            payloads(reversed, runOn(reversed, threads));
        std::reverse(backward.begin(), backward.end());
        EXPECT_EQ(forward, backward) << threads << " threads";
    }
}

TEST(Tournament, OracleWaitsForSiblingsInFlight)
{
    // One benchmark on six workers: every point is claimed at once, so
    // the oracle has to wait for all five siblings while they run.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    points.resize(reactiveCompetitors().size() + 1);
    ASSERT_TRUE(oracleParamsFromKey(points.back().controllerKey));
    EXPECT_EQ(payloads(points, runOn(points, 6)),
              payloads(points, runOn(points, 1)));
}

namespace {

/** The payload a point's handle gives: its factory's controller on the
 *  point's own machine and planned stream. For an oracle point that is
 *  the replay of its race's winning schedule. */
std::string
handlePayload(const RunPoint &p)
{
    PlannedPoint pp = planPoints({p}, true)[0];
    WorkloadSpec w = p.workload;
    w.seed = pp.seed;
    std::unique_ptr<ReconfigController> ctrl = p.makeController();
    SimResult r = runSimulation(p.cfg, w, ctrl.get(), p.warmup, p.measure);
    r.config = pp.label;
    return pointPayloadJson(r, pp.seed, p.warmup, p.measure);
}

} // namespace

TEST(Tournament, EveryKindOfWinnerAloneMatchesAmongItsSiblings)
{
    // At 1000/2000 a fixed configuration wins all nine oracles. At this
    // scale the winners of parser, crafty and djpeg are a fixed
    // configuration, the DP mixture and a reactive sibling
    // (OraclePolicy.WinnerRunIsItsScheduleReplayed). Among its
    // siblings the oracle reports the winning sibling's run; alone it
    // races that policy itself; its handle replays the winning
    // schedule. All three give one payload.
    std::vector<RunPoint> points;
    for (const RunPoint &p : makeSweepPreset("tournament", 2000, 8000))
        if (p.workload.name == "parser" || p.workload.name == "crafty" ||
            p.workload.name == "djpeg")
            points.push_back(p);
    std::vector<std::string> four = payloads(points, runOn(points, 4));
    std::size_t oracles = 0;
    for (std::size_t i = 0; i < points.size(); i++) {
        if (!oracleParamsFromKey(points[i].controllerKey))
            continue;
        oracles++;
        std::vector<RunPoint> alone = {points[i]};
        EXPECT_EQ(payloads(alone, runOn(alone, 1))[0], four[i])
            << points[i].workload.name;
        EXPECT_EQ(handlePayload(points[i]), four[i])
            << points[i].workload.name;
    }
    EXPECT_EQ(oracles, 3u);
}

TEST(Tournament, OracleOnAnotherMachineRunsThroughItsHandle)
{
    // sweepd's active_clusters override rewrites every point's machine,
    // the oracle's too. The race runs on the 16-cluster machine, so
    // such a point is not the race's run point: it replays the race's
    // schedule on its own machine, as every controller point runs its
    // handle. The oracle's controller sets the partition at attach, so
    // a viable override leaves the run as it was; one too small for
    // the architectural registers fails the point at construction (the
    // conformance rig's in-stream failure lever), which the race's own
    // 16-cluster run would not.
    std::vector<RunPoint> points =
        makeSweepPreset("tournament", 1000, 2000);
    RunPoint oracle = points[reactiveCompetitors().size()];
    ASSERT_TRUE(oracleParamsFromKey(oracle.controllerKey));
    oracle.cfg.activeClustersAtReset = 4;
    EXPECT_EQ(payloads({oracle}, runOn({oracle}, 1))[0],
              handlePayload(oracle));
    oracle.cfg.activeClustersAtReset = 1;
    ScopedPanicRethrow rethrow;
    EXPECT_THROW(runOn({oracle}, 1), SimError);
}

// ---------------------------------------------------------------------------
// Oracle policy: known candidates and the key inverse
// ---------------------------------------------------------------------------

namespace {

/** The tournament preset's oracle of `bench` at the given scale. */
OraclePolicyParams
tournamentOracle(const std::string &bench, std::uint64_t warmup,
                 std::uint64_t measure)
{
    for (const RunPoint &p : makeSweepPreset("tournament", warmup, measure))
        if (p.workload.name == bench)
            if (auto op = oracleParamsFromKey(p.controllerKey))
                return *op;
    ADD_FAILURE() << "no tournament oracle for " << bench;
    return {};
}

/** Measured runs of every reactive candidate of `p`, each on the
 *  oracle's seed, which the candidate point carries. */
KnownRuns
reactiveRuns(const OraclePolicyParams &p)
{
    KnownRuns known;
    for (const ReactiveCompetitor &c : reactiveCompetitors()) {
        RunPoint cand = reactiveCandidatePoint(p, c);
        std::unique_ptr<ReconfigController> ctrl = cand.makeController();
        known[c.label] = runSimulation(cand.cfg, cand.workload, ctrl.get(),
                                       cand.warmup, cand.measure);
    }
    return known;
}

/** The kind of candidate a race's winning schedule came from: a fixed
 *  configuration is one slot, the DP mixture one slot per interval, a
 *  reactive trajectory one slot per commit, and a known run none. */
std::string
winnerKind(const OracleSchedule &s)
{
    if (s.targets.empty())
        return "known";
    if (s.slotLength == 1)
        return "reactive";
    return s.targets.size() == 1 ? "fixed" : "dp";
}

} // namespace

TEST(OraclePolicy, KnownReactiveRunsGiveTheSameWinner)
{
    // On this stream a reactive trajectory beats every fixed
    // configuration and the DP mixture. With the reactive runs known
    // the race simulates none of them, records no trajectory, and
    // reports the same winning run.
    OraclePolicyParams p = tournamentOracle("djpeg", 2000, 8000);
    OracleRace alone = raceOracle(p);
    ASSERT_EQ(winnerKind(alone.schedule), "reactive");
    OracleRace reused = raceOracle(p, reactiveRuns(p));
    EXPECT_EQ(winnerKind(reused.schedule), "known");
    EXPECT_EQ(toJson(reused.run), toJson(alone.run));
}

TEST(OraclePolicy, WinnerRunIsItsScheduleReplayed)
{
    // At this scale every kind of candidate wins somewhere; on parser
    // a fixed configuration beats a DP schedule that mixes
    // configurations. Each winner's run is exactly the run that
    // replaying its schedule on the oracle's own run point gives, which
    // is what lets runSweep report it instead of simulating again.
    const std::pair<const char *, const char *> cases[] = {
        {"parser", "fixed"}, {"crafty", "dp"}, {"djpeg", "reactive"}};
    for (const auto &[bench, kind] : cases) {
        OraclePolicyParams p = tournamentOracle(bench, 2000, 8000);
        OracleRace race = raceOracle(p);
        EXPECT_EQ(winnerKind(race.schedule), kind) << bench;
        RunPoint own = oracleRunPoint(p);
        OracleController replay(race.schedule.slotLength,
                                race.schedule.targets);
        SimResult fresh = runSimulation(own.cfg, own.workload, &replay,
                                        own.warmup, own.measure);
        EXPECT_EQ(toJson(race.run), toJson(fresh)) << bench;
    }
}

TEST(OraclePolicy, MissingBenchAndUnknownKeysThrow)
{
    // Parameter errors are user errors: SimError, not an abort.
    registerOraclePolicy();
    EXPECT_THROW(makeController("oracle", {{"seed", "7"},
                                           {"horizon", "5000"}}),
                 SimError);
    EXPECT_THROW(makeController("oracle", {{"bench", "swim"},
                                           {"seed", "7"},
                                           {"horizon", "5000"},
                                           {"no-such-key", "1"}}),
                 SimError);
}

TEST(OraclePolicy, ParamsFromKeyInvertsTheKey)
{
    OraclePolicyParams p;
    p.bench = "gzip";
    p.seed = 12345678901234567ULL;
    p.horizon = 60000;
    p.warmup = 10000;
    p.interval = 1000;
    p.penaltyCycles = 123.4567891;
    std::optional<OraclePolicyParams> back =
        oracleParamsFromKey(oracleKey(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->bench, p.bench);
    EXPECT_EQ(back->seed, p.seed);
    EXPECT_EQ(back->horizon, p.horizon);
    EXPECT_EQ(back->warmup, p.warmup);
    EXPECT_EQ(back->interval, p.interval);
    EXPECT_EQ(back->penaltyCycles, p.penaltyCycles);
    EXPECT_EQ(back->configs, p.configs);

    // A registry handle's key reads back to the params it was built
    // from, defaults included.
    registerOraclePolicy();
    ControllerHandle h = makeController("oracle", {{"bench", "swim"},
                                                   {"seed", "7"},
                                                   {"horizon", "5000"},
                                                   {"warmup", "1000"},
                                                   {"penalty", "0.1234567"}});
    std::optional<OraclePolicyParams> q = oracleParamsFromKey(h.key);
    ASSERT_TRUE(q.has_value()) << h.key;
    EXPECT_EQ(q->bench, "swim");
    EXPECT_EQ(q->seed, 7u);
    EXPECT_EQ(q->horizon, 5000u);
    EXPECT_EQ(q->warmup, 1000u);
    EXPECT_EQ(q->interval, OraclePolicyParams{}.interval);
    EXPECT_EQ(q->penaltyCycles, 0.1234567);
    EXPECT_EQ(oracleKey(*q), h.key);
}

TEST(OraclePolicy, ParamsFromKeyRejectsOtherAndMalformedKeys)
{
    EXPECT_FALSE(oracleParamsFromKey(""));
    EXPECT_FALSE(oracleParamsFromKey(makeController("ivl-explore").key));
    EXPECT_FALSE(oracleParamsFromKey("static{active=4}"));

    OraclePolicyParams p;
    p.bench = "gzip";
    p.seed = 9;
    p.horizon = 3000;
    p.warmup = 1000;
    const std::string good = oracleKey(p);
    ASSERT_EQ(good, "oracle{bench=gzip;configs=2.4.8.16;horizon=3000;"
                    "interval=10000;penalty=200;seed=9;warmup=1000}");
    ASSERT_TRUE(oracleParamsFromKey(good).has_value());
    auto edit = [&](const std::string &from, const std::string &to) {
        std::string k = good;
        k.replace(k.find(from), from.size(), to);
        return k;
    };
    for (const std::string &bad : {
             std::string("oracle{"), std::string("oracle{}"),
             good.substr(0, good.size() - 1), good + "}",
             edit("penalty=200", "penalty=200.0"),
             edit("horizon=3000", "horizon=03000"),
             edit("horizon=3000", "horizon=+3000"),
             edit("seed=9", "seed=x"), edit("seed=9;", ""),
             edit("seed=9", "seed=9;seed=9"),
             edit(";warmup=1000", ";warmup=1000;extra=1"),
             edit("configs=2.4.8.16", "configs=2..8.16"),
             edit("configs=2.4.8.16", "configs=2.4.8.16."),
             edit("bench=gzip;configs=2.4.8.16",
                  "configs=2.4.8.16;bench=gzip"),
         })
        EXPECT_FALSE(oracleParamsFromKey(bad)) << bad;
}
