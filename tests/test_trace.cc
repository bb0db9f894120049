/**
 * @file
 * Unit tests for the observability layer: the TraceSink ring buffer
 * and periodic occupancy sampling, the per-interval time-series
 * recorder and its exports, the Perfetto JSON emitter, the one
 * observer scope that feeds every hook, and -- most importantly -- the
 * guarantee that installing a sink never changes simulation results
 * (tracing is observation only).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "memory/lsq.hh"
#include "reconfig/interval_explore.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

using namespace clustersim;

namespace {

/** Count retained events of one kind. */
std::size_t
countKind(const TraceSink &sink, TraceEventKind kind)
{
    std::size_t n = 0;
    for (const TraceEvent &ev : sink.eventsInOrder())
        if (ev.kind == kind)
            n++;
    return n;
}

/** An observer that counts the hook calls it receives, by hook. */
class CountingObserver : public Observer
{
  public:
    std::map<std::string, std::uint64_t> calls;

    void onConfigure(const ProcessorConfig &, int) override { hit("config"); }
    void onCycleBegin(Cycle, int) override { hit("cycle_begin"); }
    void onCycleEnd(int) override { hit("cycle_end"); }
    void onIdleSkip(Cycle, int) override { hit("idle_skip"); }
    void onCommit(const DynInst &, Cycle) override { hit("commit"); }
    void onStreamRebase() override { hit("stream_rebase"); }
    void onClusterIq(int, bool, int) override { hit("cluster_iq"); }
    void onClusterRegs(int, bool, int) override { hit("cluster_regs"); }
    void onRobAllocate(InstSeqNum, std::size_t, int) override { hit("rob"); }
    void onRobRetire(InstSeqNum, std::size_t) override { hit("rob_retire"); }
    void onLsqAllocate(const LoadStoreQueue &) override { hit("lsq"); }
    void onLsqResolve(const LoadStoreQueue &) override { hit("lsq_resolve"); }
    void
    onLoadAccess(const LoadStoreQueue &, InstSeqNum) override
    {
        hit("load_access");
    }
    void
    onLsqRelease(const LoadStoreQueue &, InstSeqNum) override
    {
        hit("lsq_release");
    }
    void onTransfer(int, int, int, int, Cycle) override { hit("transfer"); }
    void
    onControllerAttach(const std::string &, int, int) override
    {
        hit("controller_attach");
    }
    void
    onControllerTarget(const std::string &, int) override
    {
        hit("controller_target");
    }
    void
    onReconfigApply(int, int, std::size_t, std::size_t, bool) override
    {
        hit("reconfig_apply");
    }
    void
    onEvent(TraceEventKind, std::int64_t, std::uint64_t, double) override
    {
        hit("event");
    }
    void onMeasureStart(Cycle) override { hit("measure_start"); }
    void onMeasureEnd(Cycle, SimResult &) override { hit("measure_end"); }

  private:
    void hit(const char *hook) { calls[hook]++; }
};

} // namespace

// ---------------------------------------------------------------------------
// One observer scope feeds every hook
// ---------------------------------------------------------------------------

TEST(Observer, OneScopeFeedsEveryHook)
{
    // A decentralized machine under a reconfiguring controller reaches
    // every hook family: the distributed LSQ, the bank transfers, and
    // the drain-and-flush reconfiguration.
    IntervalExploreParams p;
    p.initialInterval = 1000;
    IntervalExploreController ctrl(p);
    CountingObserver obs;
    {
        ObserverScope scope(obs);
        runSimulation(clusteredConfig(16, InterconnectKind::Ring, true),
                      makeBenchmark("swim"), &ctrl, 2000, 20000);
    }
    // The measure-window milestones reach the scope in every build...
    EXPECT_EQ(obs.calls["measure_start"], 1u);
    EXPECT_EQ(obs.calls["measure_end"], 1u);
#if CLUSTERSIM_OBSERVE_ENABLED
    // ...and an observe build feeds every pipeline hook to the same
    // observer.
    for (const char *hook :
         {"config", "cycle_begin", "cycle_end", "cluster_iq",
          "cluster_regs", "rob", "rob_retire", "commit", "lsq",
          "lsq_resolve", "load_access", "lsq_release", "transfer",
          "controller_attach", "controller_target", "reconfig_apply",
          "event"})
        EXPECT_GT(obs.calls[hook], 0u) << hook;
    EXPECT_EQ(obs.calls["stream_rebase"], 0u);
#else
    // ...while a default build carries none of the pipeline hooks.
    EXPECT_EQ(obs.calls.size(), 2u);
#endif
}

// ---------------------------------------------------------------------------
// TraceSink ring buffer
// ---------------------------------------------------------------------------

TEST(TraceSink, RingWrapDropsOldestOnly)
{
    TraceSink sink(/*ring_capacity=*/4, /*sample_period=*/1000000);
    for (int i = 0; i < 6; i++)
        sink.onEvent(TraceEventKind::TargetChange, i, 0, 0.0);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.recorded(), 6u);
    EXPECT_EQ(sink.dropped(), 2u);
    std::vector<TraceEvent> events = sink.eventsInOrder();
    ASSERT_EQ(events.size(), 4u);
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(events[i].arg, i + 2); // oldest two were overwritten
}

TEST(TraceSink, ResetForgetsEverything)
{
    TraceSink sink(8, 100);
    sink.onCycleBegin(0, 4);
    sink.onEvent(TraceEventKind::ExploreStart, 2, 0, 0.0);
    ASSERT_GT(sink.recorded(), 0u);
    sink.reset();
    EXPECT_EQ(sink.recorded(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_TRUE(sink.eventsInOrder().empty());
}

TEST(TraceSink, PeriodicSamplesCoverAllTracks)
{
    TraceSink sink(1024, /*sample_period=*/100);
    sink.onClusterIq(0, /*fp=*/false, 5);
    sink.onClusterIq(0, /*fp=*/true, 2);
    sink.onClusterRegs(1, /*fp=*/false, 7);
    sink.onRobAllocate(30, /*size=*/30, 480);
    LoadStoreQueue lsq(/*distributed=*/false, 1, 15);
    lsq.allocate(1, /*is_store=*/false, 0, 1);
    sink.onLsqAllocate(lsq);
    sink.onTransfer(0, 3, /*hops=*/3, 8, /*queue_delay=*/10);
    sink.onTransfer(0, 1, /*hops=*/1, 8, /*queue_delay=*/20);

    // First cycle hits the sample point immediately.
    sink.onCycleBegin(0, 8);
    // Two clusters were seen, so both get IQ and regfile tracks.
    EXPECT_EQ(countKind(sink, TraceEventKind::ActiveSample), 1u);
    EXPECT_EQ(countKind(sink, TraceEventKind::IqSample), 2u);
    EXPECT_EQ(countKind(sink, TraceEventKind::RegSample), 2u);
    EXPECT_EQ(countKind(sink, TraceEventKind::RobSample), 1u);
    EXPECT_EQ(countKind(sink, TraceEventKind::LsqSample), 1u);
    EXPECT_EQ(countKind(sink, TraceEventKind::LinkSample), 1u);

    // Between sample points nothing is emitted.
    sink.onCycleBegin(50, 8);
    EXPECT_EQ(countKind(sink, TraceEventKind::ActiveSample), 1u);

    // The next sample point emits again, with the link accumulators
    // reset after the previous sample.
    sink.onCycleBegin(100, 6);
    EXPECT_EQ(countKind(sink, TraceEventKind::ActiveSample), 2u);
    bool saw_first_link = false;
    for (const TraceEvent &ev : sink.eventsInOrder()) {
        if (ev.kind != TraceEventKind::LinkSample)
            continue;
        if (!saw_first_link) {
            saw_first_link = true;
            EXPECT_EQ(ev.arg, 2);        // transfers
            EXPECT_EQ(ev.aux, 4u);       // hops
            EXPECT_DOUBLE_EQ(ev.val, 15.0); // avg queue delay
        } else {
            EXPECT_EQ(ev.arg, 0);
            EXPECT_EQ(ev.aux, 0u);
        }
    }
    EXPECT_TRUE(saw_first_link);
}

TEST(TraceSink, EventNamesAreStableAndDistinct)
{
    std::set<std::string> names;
    for (int i = 0; i < numTraceEventKinds; i++) {
        const char *name =
            traceEventName(static_cast<TraceEventKind>(i));
        ASSERT_NE(name, nullptr);
        names.insert(name);
    }
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(numTraceEventKinds));
    EXPECT_STREQ(traceEventName(TraceEventKind::ControllerAttach),
                 "controller_attach");
    EXPECT_STREQ(traceEventName(TraceEventKind::ActiveSample),
                 "active_clusters");
}

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

TEST(TimeSeries, AggregatesFixedIntervals)
{
    TimeSeriesRecorder rec;
    // Disabled until configured: commits are dropped.
    rec.onCommit(OpClass::IntAlu, false, 1, 4);
    EXPECT_FALSE(rec.enabled());
    EXPECT_TRUE(rec.rows().empty());
    EXPECT_EQ(rec.partialInstructions(), 0u);

    rec.configure(10);
    ASSERT_TRUE(rec.enabled());
    EXPECT_EQ(rec.interval(), 10u);
    for (int i = 0; i < 25; i++) {
        OpClass op = i % 5 == 0 ? OpClass::CondBranch
                   : i % 3 == 0 ? OpClass::Load
                                : OpClass::IntAlu;
        rec.onCommit(op, /*distant=*/i % 4 == 0,
                     /*cycle=*/static_cast<Cycle>(2 * i),
                     /*active_clusters=*/4);
    }
    ASSERT_EQ(rec.rows().size(), 2u);
    const TimeSeriesRow &row = rec.rows()[0];
    EXPECT_EQ(row.startCycle, 0u);
    EXPECT_EQ(row.endCycle, 18u);
    EXPECT_EQ(row.instructions, 10u);
    EXPECT_EQ(row.branches, 2u); // i = 0, 5
    EXPECT_EQ(row.memrefs, 3u);  // i = 3, 6, 9
    EXPECT_EQ(row.distant, 3u);  // i = 0, 4, 8
    EXPECT_EQ(row.activeClusters, 4);
    EXPECT_DOUBLE_EQ(row.ipc(), 10.0 / 18.0);
    EXPECT_EQ(rec.partialInstructions(), 5u);

    // reset() drops rows and the partial interval but stays enabled.
    rec.reset();
    EXPECT_TRUE(rec.rows().empty());
    EXPECT_EQ(rec.partialInstructions(), 0u);
    EXPECT_TRUE(rec.enabled());
}

TEST(TimeSeries, CsvAndJsonExports)
{
    TimeSeriesRecorder rec;
    rec.configure(4);
    for (int i = 0; i < 8; i++)
        rec.onCommit(i % 2 ? OpClass::Load : OpClass::IntAlu,
                     /*distant=*/false,
                     /*cycle=*/static_cast<Cycle>(i + 1),
                     /*active_clusters=*/2);
    ASSERT_EQ(rec.rows().size(), 2u);

    std::string csv = timeSeriesCsv(rec.rows());
    EXPECT_NE(csv.find("start_cycle,end_cycle,instructions,branches,"
                       "memrefs,distant,active_clusters,ipc\n"),
              std::string::npos);
    // Header plus one line per row.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);

    JsonWriter w;
    timeSeriesJson(w, rec.rows());
    JsonValue v = parseJson(w.str());
    ASSERT_TRUE(v.isObject());
    for (const char *key : {"start_cycle", "end_cycle", "instructions",
                            "branches", "memrefs", "distant",
                            "active_clusters", "ipc"})
        ASSERT_EQ(v.at(key).asArray().size(), 2u) << key;
    EXPECT_EQ(v.at("instructions").asArray()[0].asInt(), 4);
    EXPECT_EQ(v.at("memrefs").asArray()[1].asInt(), 2);
    EXPECT_EQ(v.at("active_clusters").asArray()[0].asInt(), 2);
}

// ---------------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------------

TEST(Trace, PerfettoJsonIsWellFormed)
{
    TraceSink sink(1024, 100);
    sink.onCycleBegin(0, 4);
    sink.onEvent(TraceEventKind::ControllerAttach, 16, 16, 0.0);
    sink.onClusterIq(0, false, 3);
    sink.onCycleBegin(100, 4);
    sink.onEvent(TraceEventKind::ExploreStart, 2, 10000, 0.0);

    JsonValue v = parseJson(perfettoJson(sink));
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("displayTimeUnit").asString(), "ns");
    const auto &events = v.at("traceEvents").asArray();
    ASSERT_GT(events.size(), 2u);

    // A metadata record labels the process.
    EXPECT_EQ(events[0].at("ph").asString(), "M");
    EXPECT_EQ(events[0].at("args").at("name").asString(), "clustersim");

    std::size_t counters = 0, instants = 0;
    for (std::size_t i = 1; i < events.size(); i++) {
        const JsonValue &ev = events[i];
        ASSERT_TRUE(ev.has("name"));
        ASSERT_TRUE(ev.has("ts"));
        ASSERT_TRUE(ev.has("args"));
        std::string ph = ev.at("ph").asString();
        if (ph == "C") {
            counters++;
        } else {
            ASSERT_EQ(ph, "i");
            EXPECT_EQ(ev.at("s").asString(), "g");
            EXPECT_TRUE(ev.at("args").has("arg"));
            EXPECT_TRUE(ev.at("args").has("aux"));
            EXPECT_TRUE(ev.at("args").has("val"));
            instants++;
        }
    }
    EXPECT_GE(counters, 1u);
    EXPECT_EQ(instants, 2u);
}

// ---------------------------------------------------------------------------
// Tracing is observation only
// ---------------------------------------------------------------------------

TEST(Trace, SinkDoesNotPerturbSimulation)
{
    ProcessorConfig cfg = clusteredConfig(16);
    WorkloadSpec bench = makeBenchmark("gzip");

    auto plain_ctrl = makeExploreController();
    SimResult plain = runSimulation(cfg, bench, plain_ctrl.get(),
                                    2000, 30000);

    TraceSink sink(1 << 16, 64);
    sink.enableTimeSeries(1000);
    auto traced_ctrl = makeExploreController();
    SimResult traced;
    {
        ObserverScope scope(sink);
        traced = runSimulation(cfg, bench, traced_ctrl.get(), 2000,
                               30000);
    }

    // Bit-identical scalar results, with or without a sink in scope.
    EXPECT_EQ(traced.benchmark, plain.benchmark);
    EXPECT_EQ(traced.config, plain.config);
    EXPECT_EQ(traced.ipc, plain.ipc);
    EXPECT_EQ(traced.instructions, plain.instructions);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.mispredictInterval, plain.mispredictInterval);
    EXPECT_EQ(traced.branchAccuracy, plain.branchAccuracy);
    EXPECT_EQ(traced.l1MissRate, plain.l1MissRate);
    EXPECT_EQ(traced.avgActiveClusters, plain.avgActiveClusters);
    EXPECT_EQ(traced.reconfigurations, plain.reconfigurations);
    EXPECT_EQ(traced.flushWritebacks, plain.flushWritebacks);
    EXPECT_EQ(traced.avgRegCommLatency, plain.avgRegCommLatency);
    EXPECT_EQ(traced.distantFraction, plain.distantFraction);
    EXPECT_EQ(traced.bankPredAccuracy, plain.bankPredAccuracy);
    // The untraced run must not grow a series.
    EXPECT_TRUE(plain.timeSeries.empty());
    EXPECT_EQ(plain.timeSeriesInterval, 0u);
}

TEST(Trace, MilestoneEventsRecordedInAnyBuild)
{
    // The measure-start/end milestones are runtime-gated cold code in
    // the simulation driver, recorded in every build flavour; the
    // pipeline hooks and the series feed are compile-time gated.
    TraceSink sink(1 << 16, 64);
    sink.enableTimeSeries(1000);
    SimResult res;
    {
        ObserverScope scope(sink);
        res = runSimulation(clusteredConfig(4), makeBenchmark("gzip"),
                            nullptr, 1000, 5000);
    }
    EXPECT_EQ(countKind(sink, TraceEventKind::MeasureStart), 1u);
    EXPECT_EQ(countKind(sink, TraceEventKind::MeasureEnd), 1u);
#if CLUSTERSIM_OBSERVE_ENABLED
    EXPECT_GT(sink.recorded(), 2u);
    ASSERT_FALSE(res.timeSeries.empty());
    EXPECT_EQ(res.timeSeriesInterval, 1000u);
#else
    EXPECT_EQ(sink.recorded(), 2u);
    EXPECT_TRUE(res.timeSeries.empty());
    EXPECT_EQ(res.timeSeriesInterval, 0u);
#endif
}

#if CLUSTERSIM_OBSERVE_ENABLED
TEST(Trace, IntervalExploreRunEmitsReconfigTimeline)
{
    IntervalExploreParams p;
    p.initialInterval = 2000;
    IntervalExploreController ctrl(p);

    TraceSink sink(1 << 18, 64);
    sink.enableTimeSeries(2000);
    SimResult res;
    {
        ObserverScope scope(sink);
        res = runSimulation(clusteredConfig(16), makeBenchmark("gzip"),
                            &ctrl, 5000, 50000);
    }

    // The reconfiguration timeline is present...
    EXPECT_EQ(countKind(sink, TraceEventKind::ControllerAttach), 1u);
    EXPECT_GE(countKind(sink, TraceEventKind::ExploreStart), 1u);
    EXPECT_GE(countKind(sink, TraceEventKind::ExploreStep), 1u);
    EXPECT_GE(countKind(sink, TraceEventKind::ReconfigApply), 1u);
    // ...alongside periodic occupancy samples of every track.
    EXPECT_GE(countKind(sink, TraceEventKind::ActiveSample), 10u);
    EXPECT_GE(countKind(sink, TraceEventKind::IqSample), 10u);
    EXPECT_GE(countKind(sink, TraceEventKind::RegSample), 10u);
    EXPECT_GE(countKind(sink, TraceEventKind::RobSample), 10u);
    EXPECT_GE(countKind(sink, TraceEventKind::LsqSample), 10u);
    EXPECT_GE(countKind(sink, TraceEventKind::LinkSample), 10u);

    // Retained events are in non-decreasing cycle order.
    std::vector<TraceEvent> events = sink.eventsInOrder();
    for (std::size_t i = 1; i < events.size(); i++)
        EXPECT_LE(events[i - 1].cycle, events[i].cycle) << i;

    // The embedded time series covers the measurement window.
    ASSERT_GE(res.timeSeries.size(), 10u);
    EXPECT_EQ(res.timeSeriesInterval, 2000u);
    std::uint64_t insts = 0;
    for (const TimeSeriesRow &row : res.timeSeries) {
        EXPECT_EQ(row.instructions, 2000u);
        EXPECT_GT(row.endCycle, row.startCycle);
        insts += row.instructions;
    }
    EXPECT_LE(insts, res.instructions);
}
#endif
