/**
 * @file
 * In-process workloads: tournament-cold and warm-fig3.
 *
 * The untraced passes drive the library exactly as `tools/sweep` does:
 * runSweep() -> sweepReportJson(no timing) -> report file. The traced
 * passes re-compose every point from the same public calls (plan ->
 * controller factory -> stream -> Processor -> warmup or checkpoint
 * restore -> measureWindow -> payload -> assembleSweepReport) with a
 * span around each call, and must produce a byte-identical report.
 *
 * One difference is deliberate: the traced cold path feeds the core
 * from a pre-generated ReplayBuffer (as runSweep's checkpoint path and
 * runSweepBatched() do) instead of the inline generator, so stream
 * generation shows as its own span. Replay is bit-identical to
 * generation, and trace_overhead_frac carries the cost difference.
 */

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hh"
#include "common/sha256.hh"
#include "reconfig/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/replay.hh"

using namespace clustersim;

namespace e2ebench {

namespace {

/** Value of `name=` inside a canonical `policy{k=v;...}` key. */
std::string
keyParam(const std::string &key, const std::string &name)
{
    std::size_t at = key.find(name + "=");
    if (at == std::string::npos)
        return {};
    at += name.size() + 1;
    return key.substr(at, key.find_first_of(";}", at) - at);
}

bool
isOracle(const RunPoint &p)
{
    return p.controllerKey.rfind("oracle{", 0) == 0;
}

/**
 * A preset's points with every benchmark stream reseeded from the run
 * seed. The oracle scores the stream it races only when its probes run
 * on that point's planned seed, so each oracle handle is rebuilt through
 * the registry with the planned seed (and the preset's own interval and
 * penalty). Building fresh handles also drops the oracle's memoized
 * schedule, which keeps every pass cold.
 */
std::vector<RunPoint>
seededPreset(const std::string &preset, std::uint64_t warmup,
             std::uint64_t measure, std::uint64_t seed)
{
    std::vector<RunPoint> points = makeSweepPreset(preset, warmup, measure);
    for (RunPoint &p : points)
        p.workload.seed = sweepSeed(seed, p.workload.name, "e2ebench");
    std::vector<PlannedPoint> plan = planPoints(points, true);
    for (std::size_t i = 0; i < points.size(); i++) {
        RunPoint &p = points[i];
        if (!isOracle(p))
            continue;
        ControllerHandle h = makeController(
            "oracle",
            {{"bench", p.workload.name},
             {"seed", std::to_string(plan[i].seed)},
             {"horizon", std::to_string(p.warmup + p.measure)},
             {"warmup", std::to_string(p.warmup)},
             {"interval", keyParam(p.controllerKey, "interval")},
             {"penalty", keyParam(p.controllerKey, "penalty")}});
        p.makeController = std::move(h.make);
        p.controllerKey = std::move(h.key);
    }
    return points;
}

/** One untraced pass: what `sweep --no-timing --out FILE` does. */
struct PlainPass {
    double wall = 0.0;
    std::string report;
    SweepResult result;
    std::vector<double> pointSeconds;
};

PlainPass
runPlainPass(const std::string &name, const std::vector<RunPoint> &points,
             WarmupCheckpointStore *store, const std::string &report_path)
{
    PlainPass out;
    std::map<std::thread::id, Clock::time_point> last;
    SweepOptions opts;
    opts.threads = workers;
    opts.checkpoints = store;
    Clock::time_point t0 = Clock::now();
    // Runs on the worker that finished the point, serialized by the
    // sweep's completion lock: the gap since that worker's previous
    // completion is the point's whole span, factory time included.
    opts.onComplete = [&](std::size_t, const SimResult &) {
        Clock::time_point t = Clock::now();
        auto it = last.try_emplace(std::this_thread::get_id(), t0).first;
        out.pointSeconds.push_back(secondsBetween(it->second, t));
        it->second = t;
    };
    out.result = runSweep(points, opts);
    out.report = sweepReportJson(name, points, out.result, false);
    writeFile(report_path, out.report + "\n");
    out.wall = secondsBetween(t0, Clock::now());
    return out;
}

/** Simulated and byte counts gathered by traced points. */
struct LayerCounts {
    std::uint64_t genOps = 0;
    std::uint64_t hostInsts = 0;    ///< instructions simulated on host
    std::uint64_t hostCycles = 0;
    std::uint64_t committed = 0;    ///< measure windows only
    std::uint64_t cycles = 0;
    std::uint64_t stall[5] = {};    ///< iq, reg, lsq, rob, empty
    std::uint64_t regTransfers = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t reconfigurations = 0;
    double l1MissSum = 0.0;
    double activeSum = 0.0;
    std::uint64_t points = 0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t ckptStores = 0;

    void
    merge(const LayerCounts &o)
    {
        genOps += o.genOps;
        hostInsts += o.hostInsts;
        hostCycles += o.hostCycles;
        committed += o.committed;
        cycles += o.cycles;
        for (int k = 0; k < 5; k++)
            stall[k] += o.stall[k];
        regTransfers += o.regTransfers;
        mispredicts += o.mispredicts;
        reconfigurations += o.reconfigurations;
        l1MissSum += o.l1MissSum;
        activeSum += o.activeSum;
        points += o.points;
        ckptBytes += o.ckptBytes;
        ckptStores += o.ckptStores;
    }
};

/** One point, re-composed from public calls with a span around each. */
ReportEntry
tracePoint(SpanLane &lane, const RunPoint &p, const PlannedPoint &pp,
           WarmupCheckpointStore *store, LayerCounts &n)
{
    const std::uint64_t id = pp.index;
    const int pt = lane.open("point", -1, id);
    WorkloadSpec w = p.workload;
    w.seed = pp.seed;

    std::unique_ptr<ReconfigController> ctrl;
    if (p.makeController)
        ctrl = traced(lane,
                      isOracle(p) ? "reconfig.oracle_probe"
                                  : "reconfig.factory",
                      pt, id, [&] { return p.makeController(); });

    auto buffer = traced(lane, "workload.gen", pt, id, [&] {
        return std::make_shared<const ReplayBuffer>(
            w, p.warmup + p.measure + replayMargin(p.cfg));
    });
    n.genOps += buffer->size();
    auto src = std::make_unique<ReplaySource>(buffer);
    auto proc = traced(lane, "core.construct", pt, id, [&] {
        return std::make_unique<Processor>(p.cfg, src.get(), ctrl.get());
    });

    std::string key = store ? store->keyFor(p, w.seed) : std::string();
    bool restored = false;
    if (!key.empty()) {
        std::optional<std::string> blob = traced(
            lane, "ckpt.load", pt, id, [&] { return store->load(key); });
        if (blob) {
            auto snap = traced(
                lane, "ckpt.deserialize", pt, id,
                [&]() -> std::optional<Processor::Snapshot> {
                    Processor::Snapshot donor = proc->snapshot();
                    if (!deserializeSnapshot(*blob, donor))
                        return std::nullopt;
                    return donor;
                });
            if (snap) {
                traced(lane, "ckpt.restore", pt, id,
                       [&] { proc->restore(*snap); });
                restored = true;
            }
        }
    }
    if (!restored && p.warmup > 0) {
        traced(lane, "core.warmup", pt, id, [&] { proc->run(p.warmup); });
        n.hostInsts += proc->committed();
        n.hostCycles += proc->cycle();
        if (!key.empty()) {
            Processor::Snapshot snap = traced(
                lane, "ckpt.snapshot", pt, id,
                [&] { return proc->snapshot(); });
            std::string blob = traced(lane, "ckpt.serialize", pt, id,
                                      [&] { return serializeSnapshot(snap); });
            n.ckptBytes += blob.size();
            n.ckptStores++;
            traced(lane, "ckpt.store", pt, id,
                   [&] { store->store(key, blob); });
        }
    }

    SimResult r = traced(lane, "core.measure", pt, id, [&] {
        proc->resetStats();
        return measureWindow(*proc, p.measure);
    });
    r.benchmark = w.name;
    r.config = pp.label;

    const ProcessorStats &st = proc->stats();
    n.hostInsts += r.instructions;
    n.hostCycles += r.cycles;
    n.committed += r.instructions;
    n.cycles += r.cycles;
    const std::uint64_t stalls[5] = {st.stallIq, st.stallReg, st.stallLsq,
                                     st.stallRob, st.stallEmpty};
    for (int k = 0; k < 5; k++)
        n.stall[k] += stalls[k];
    n.regTransfers += st.regTransfers;
    n.mispredicts += st.mispredicts;
    n.reconfigurations += r.reconfigurations;
    n.l1MissSum += r.l1MissRate;
    n.activeSum += r.avgActiveClusters;
    n.points++;

    ReportEntry entry = traced(lane, "report.payload", pt, id, [&] {
        return ReportEntry{pointPayloadJson(r, w.seed, p.warmup, p.measure),
                           r.ipc, r.avgActiveClusters, r.benchmark,
                           r.config};
    });
    traced(lane, "core.teardown", pt, id, [&] {
        proc.reset();
        src.reset();
        buffer.reset();
        ctrl.reset();
    });
    lane.close(pt);
    return entry;
}

/** One traced pass; lanes[0] is the main thread, then one per worker. */
struct TracedPass {
    double wall = 0.0;
    std::string report;
    double pointSeconds = 0.0;  ///< summed point span durations
};

TracedPass
runTracedPass(const std::string &name, const std::vector<RunPoint> &points,
              WarmupCheckpointStore *store, const std::string &report_path,
              std::vector<SpanLane> &lanes, LayerCounts &counts,
              std::uint64_t pass_no)
{
    TracedPass out;
    SpanLane &main_lane = lanes[0];
    Clock::time_point t0 = Clock::now();
    const int root = main_lane.open("pass", -1, pass_no);
    SweepPlan plan = traced(main_lane, "sweep.plan", root, pass_no,
                            [&] { return planSweep(points, true); });

    std::vector<ReportEntry> entries(points.size());
    std::vector<LayerCounts> per_worker(workers);
    std::vector<std::size_t> first_span(lanes.size());
    for (std::size_t l = 0; l < lanes.size(); l++)
        first_span[l] = lanes[l].spans().size();
    std::atomic<std::size_t> next{0};
    auto worker = [&](int k) {
        SpanLane &lane = lanes[static_cast<std::size_t>(k) + 1];
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= points.size())
                return;
            entries[i] = tracePoint(lane, points[i], plan.points[i], store,
                                    per_worker[static_cast<std::size_t>(k)]);
        }
    };
    {
        std::vector<std::thread> pool;
        for (int k = 0; k < workers; k++)
            pool.emplace_back(worker, k);
        for (std::thread &t : pool)
            t.join();
    }
    for (const LayerCounts &c : per_worker)
        counts.merge(c);

    out.report = traced(main_lane, "report.assemble", root, pass_no,
                        [&] { return assembleSweepReport(name, entries); });
    traced(main_lane, "report.write", root, pass_no,
           [&] { writeFile(report_path, out.report + "\n"); });
    main_lane.close(root);
    out.wall = secondsBetween(t0, Clock::now());

    for (std::size_t l = 1; l < lanes.size(); l++) {
        const std::vector<Span> &s = lanes[l].spans();
        for (std::size_t j = first_span[l]; j < s.size(); j++)
            if (s[j].parent < 0)
                out.pointSeconds += (s[j].endNs - s[j].startNs) * 1e-9;
    }
    return out;
}

/** Shape and scale of one in-process workload. */
struct InprocSpec {
    std::string preset;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    bool warm = false;          ///< fill a checkpoint store in set-up
};

/**
 * The oracle bound, per benchmark: the oracle's measure window takes no
 * more cycles than any reactive policy's on the same stream. (Its IPC
 * can still trail by a hair: a window ends on the first cycle that
 * commits past the target, so runs commit up to width-1 extra
 * instructions.) A seed that missed the oracle's probes breaks this.
 */
void
checkOracleBound(const std::vector<RunPoint> &points, const SweepResult &res,
                 Outcome &out)
{
    std::map<std::string, const SimResult *> oracle;
    for (std::size_t i = 0; i < points.size(); i++)
        if (isOracle(points[i]))
            oracle[res.runs[i].result.benchmark] = &res.runs[i].result;
    for (std::size_t i = 0; i < points.size(); i++) {
        const SimResult &r = res.runs[i].result;
        auto it = oracle.find(r.benchmark);
        if (it == oracle.end() || isOracle(points[i]))
            continue;
        const SimResult &o = *it->second;
        if (o.cycles > r.cycles)
            out.errors.push_back(
                "oracle takes " + std::to_string(o.cycles) + " cycles, " +
                r.config + " " + std::to_string(r.cycles) + ", on " +
                r.benchmark + " (seed " + std::to_string(res.runs[i].seed) +
                ")");
    }
}

std::uint64_t
requestedInsts(const std::vector<RunPoint> &points)
{
    std::uint64_t n = 0;
    for (const RunPoint &p : points)
        n += p.warmup + p.measure;
    return n;
}

/** One run of an in-process workload: set-up, timed passes, traced
 *  passes, and the checks that tie their reports together. */
class InprocRun
{
  public:
    InprocRun(const RunConfig &cfg, InprocSpec spec)
        : cfg_(cfg), spec_(std::move(spec)),
          reportPath_(cfg.workdir + "/report.json")
    {}

    Outcome
    run()
    {
        points_ = build(0);
        setUp();
        timedPasses();
        if (cfg_.trace)
            tracedPasses();
        if (mismatched_ > 0)
            out_.errors.push_back(std::to_string(mismatched_) +
                                  " report(s) differ from the cold reference");
        if (!out_.errors.empty())
            out_.failed = out_.attempted;
        if (cfg_.trace) {
            CheckpointStats st = retired_;
            if (store_) {
                st.corrupt += store_->stats().corrupt;
                st.storeFailures += store_->stats().storeFailures;
            }
            Metrics &m = out_.metrics;
            m.set("ckpt.corrupt", static_cast<double>(st.corrupt), "count");
            m.set("ckpt.store_failures",
                  static_cast<double>(st.storeFailures), "count");
            m.set("failed_frac",
                  static_cast<double>(out_.failed) /
                      static_cast<double>(out_.attempted),
                  "ratio");
        }
        out_.reportSha256 = sha256Hex(reference_.front());
        return std::move(out_);
    }

  private:
    /**
     * Cold passes rotate through streams derived from the run seed, so a
     * run's median covers many inputs rather than one draw; warm passes
     * must re-run the points their store was filled with.
     */
    std::vector<RunPoint>
    build(std::size_t pass) const
    {
        std::uint64_t seed =
            spec_.warm ? cfg_.seed
                       : sweepSeed(cfg_.seed, "pass", std::to_string(pass));
        return seededPreset(spec_.preset, spec_.warmup, spec_.measure, seed);
    }

    /** Every report must equal the first one of the same inputs. */
    void
    check(std::size_t pass, const std::string &report)
    {
        std::size_t i = spec_.warm ? 0 : pass;
        if (i >= reference_.size())
            reference_.push_back(report);
        else if (report != reference_[i])
            mismatched_++;
    }

    void
    freshStore()
    {
        if (store_) {
            CheckpointStats st = store_->stats();
            retired_.corrupt += st.corrupt;
            retired_.storeFailures += st.storeFailures;
            std::filesystem::remove_all(store_->dir());
        }
        store_ = std::make_unique<WarmupCheckpointStore>(
            cfg_.workdir + "/ckpt-" + std::to_string(storeNo_++));
    }

    /** Preset builds (cold) or cold store fills (warm), each timed. */
    void
    setUp()
    {
        std::vector<double> setup;
        if (spec_.warm) {
            for (int k = 0; k < (cfg_.tiny ? 2 : 3); k++) {
                freshStore();
                PlainPass fill = runPlainPass(spec_.preset, points_,
                                              store_.get(), reportPath_);
                setup.push_back(fill.wall);
                check(0, fill.report);
            }
        } else {
            // A preset build takes ~0.1 ms: time 200 after 20 unrecorded
            // ones, so first-touch page faults do not set the median.
            for (int k = 0; k < 220; k++) {
                Clock::time_point t0 = Clock::now();
                std::vector<RunPoint> p = build(0);
                if (k >= 20)
                    setup.push_back(secondsBetween(t0, Clock::now()));
            }
        }
        out_.metrics.set("setup_s", median(setup), "s");
        out_.samples["setup"] = setup.size();
    }

    /** Untraced passes: the end-to-end metrics. */
    void
    timedPasses()
    {
        const double budget = cfg_.trace ? cfg_.seconds / 2 : cfg_.seconds;
        std::vector<double> point_ms;
        std::uint64_t warm_starts = 0;
        Clock::time_point t0 = Clock::now();
        do {
            const std::size_t k = walls_.size();
            if (!spec_.warm)
                points_ = build(k);
            PlainPass pass = runPlainPass(spec_.preset, points_, store_.get(),
                                          reportPath_);
            walls_.push_back(pass.wall);
            for (double s : pass.pointSeconds)
                point_ms.push_back(s * 1e3);
            for (const SweepRun &r : pass.result.runs)
                warm_starts += r.warmStart ? 1 : 0;
            out_.attempted += pass.result.runs.size();
            check(k, pass.report);
            if (!spec_.warm)
                checkOracleBound(points_, pass.result, out_);
        } while (secondsBetween(t0, Clock::now()) + walls_.back() <= budget);

        Metrics &m = out_.metrics;
        const double wall = median(walls_);
        m.set("wall_s", wall, "s");
        m.set("mips",
              static_cast<double>(requestedInsts(points_)) / wall / 1e6,
              "Minst/s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        m.set("store_mb", static_cast<double>(dirBytes(cfg_.workdir)) / 1e6,
              "MB");
        m.set("job_p50_ms", percentile(point_ms, 50), "ms");
        m.set("job_p99_ms", percentile(point_ms, 99), "ms");
        out_.samples["job_latency"] = point_ms.size();
        out_.samples["passes"] = walls_.size();
        // From SweepRun::warmStart, per point: CheckpointStats::misses
        // counts every cold point twice (the loads before and after the
        // compute lease).
        hitRatio_ = spec_.warm ? static_cast<double>(warm_starts) /
                                     static_cast<double>(out_.attempted)
                               : 0.0;
    }

    /** Traced passes (and a traced store fill): per-layer metrics. */
    void
    tracedPasses()
    {
        Metrics &m = out_.metrics;
        zeroLayerMetrics(m);
        m.set("ckpt.hit_ratio", hitRatio_, "ratio");
        Clock::time_point epoch = Clock::now();
        auto make_lanes = [&] {
            std::vector<SpanLane> lanes;
            for (int l = 0; l <= workers; l++)
                lanes.emplace_back(l, epoch);
            return lanes;
        };

        if (spec_.warm) {
            // The checkpoint write path, from one traced store fill.
            freshStore();
            std::vector<SpanLane> fill_lanes = make_lanes();
            LayerCounts fill;
            check(0, runTracedPass(spec_.preset, points_, store_.get(),
                                   reportPath_, fill_lanes, fill, 0)
                         .report);
            SpanTotals ft;
            for (const SpanLane &l : fill_lanes)
                ft.addLane(l);
            m.set("ckpt.snapshot_s", ft.sec("ckpt.snapshot"), "s");
            m.set("ckpt.serialize_s", ft.sec("ckpt.serialize"), "s");
            m.set("ckpt.store_s", ft.sec("ckpt.store"), "s");
            m.set("ckpt.bytes_per_point",
                  fill.ckptStores ? static_cast<double>(fill.ckptBytes) /
                                        static_cast<double>(fill.ckptStores)
                                  : 0.0,
                  "bytes");
        }

        out_.lanes = make_lanes();
        LayerCounts n;
        std::vector<double> walls;
        double util_sum = 0.0;
        Clock::time_point t0 = Clock::now();
        do {
            const std::size_t k = walls.size();
            if (!spec_.warm)
                points_ = build(k);
            TracedPass pass =
                runTracedPass(spec_.preset, points_, store_.get(),
                              reportPath_, out_.lanes, n, k + 1);
            walls.push_back(pass.wall);
            util_sum += pass.pointSeconds / (workers * pass.wall);
            check(k, pass.report);
            m.set("report.bytes", static_cast<double>(pass.report.size()),
                  "bytes");
        } while (secondsBetween(t0, Clock::now()) + walls.back() <=
                 cfg_.seconds / 2);
        out_.samples["traced_passes"] = walls.size();

        SpanTotals tot;
        for (const SpanLane &l : out_.lanes)
            tot.addLane(l);
        const double passes = static_cast<double>(walls.size());
        auto per_pass = [&](const char *span) {
            return tot.sec(span) / passes;
        };
        const double gen = tot.sec("workload.gen");
        m.set("workload.gen_s", gen / passes, "s");
        m.set("workload.gen_ns_per_op",
              n.genOps ? gen * 1e9 / static_cast<double>(n.genOps) : 0.0,
              "ns/op");
        m.set("core.construct_s", per_pass("core.construct"), "s");
        m.set("core.warmup_s", per_pass("core.warmup"), "s");
        m.set("core.measure_s", per_pass("core.measure"), "s");
        m.set("core.teardown_s", per_pass("core.teardown"), "s");
        const double core = tot.sec("core.warmup") + tot.sec("core.measure");
        m.set("core.ns_per_inst",
              core * 1e9 / static_cast<double>(n.hostInsts), "ns/inst");
        m.set("core.ns_per_cycle",
              core * 1e9 / static_cast<double>(n.hostCycles), "ns/cycle");

        // Simulated denominators of one pass: they must repeat exactly.
        const double pc = static_cast<double>(n.points);
        const double committed = static_cast<double>(n.committed);
        m.set("core.committed", committed / passes, "inst");
        m.set("core.sim_cycles", static_cast<double>(n.cycles) / passes,
              "cycles");
        const char *causes[5] = {"iq", "reg", "lsq", "rob", "empty"};
        for (int k = 0; k < 5; k++)
            m.set(std::string("core.cpi_stall_") + causes[k],
                  static_cast<double>(n.stall[k]) / committed, "cycles/inst");
        m.set("interconnect.reg_transfers_per_inst",
              static_cast<double>(n.regTransfers) / committed, "xfers/inst");
        m.set("memory.l1_miss_rate", n.l1MissSum / pc, "ratio");
        m.set("predictor.mispredict_interval",
              n.mispredicts ? committed / static_cast<double>(n.mispredicts)
                            : committed,
              "inst");
        m.set("reconfig.reconfigurations",
              static_cast<double>(n.reconfigurations) / passes, "count");
        m.set("reconfig.avg_active_clusters", n.activeSum / pc, "clusters");

        m.set("reconfig.factory_s", per_pass("reconfig.factory"), "s");
        m.set("reconfig.oracle_probe_s", per_pass("reconfig.oracle_probe"),
              "s");
        m.set("sweep.plan_s", per_pass("sweep.plan"), "s");
        m.set("sweep.worker_util", util_sum / passes, "ratio");
        m.set("ckpt.load_s", per_pass("ckpt.load"), "s");
        m.set("ckpt.deserialize_s", per_pass("ckpt.deserialize"), "s");
        m.set("ckpt.restore_s", per_pass("ckpt.restore"), "s");
        m.set("report.assemble_s",
              per_pass("report.payload") + per_pass("report.assemble"), "s");

        // Share of the traced work inside a named layer span: the self
        // time of every span but the point and pass envelopes, over the
        // envelopes' duration (plus the main thread's own layer spans).
        double layered = 0.0;
        for (const auto &kv : tot.selfSeconds)
            if (kv.first != "point" && kv.first != "pass")
                layered += kv.second;
        const double envelopes =
            tot.sec("point") + tot.sec("sweep.plan") +
            tot.sec("report.assemble") + tot.sec("report.write");
        m.set("trace.coverage", layered / envelopes, "ratio");
        m.set("trace_overhead_frac", median(walls) / median(walls_) - 1.0,
              "ratio");
    }

    const RunConfig &cfg_;
    const InprocSpec spec_;
    const std::string reportPath_;
    Outcome out_;
    std::vector<RunPoint> points_;
    std::unique_ptr<WarmupCheckpointStore> store_;
    int storeNo_ = 0;
    CheckpointStats retired_;       ///< counters of replaced stores
    /** Timing-free report of each cold pass (index = pass); warm runs
     *  keep one, the first cold fill's. */
    std::vector<std::string> reference_;
    std::uint64_t mismatched_ = 0;
    std::vector<double> walls_;     ///< untraced pass walls
    double hitRatio_ = 0.0;
};

} // namespace

Outcome
runTournamentCold(const RunConfig &cfg)
{
    InprocSpec spec;
    spec.preset = "tournament";
    spec.warmup = cfg.tiny ? 2000 : 10000;
    spec.measure = cfg.tiny ? 6000 : 50000;
    return InprocRun(cfg, spec).run();
}

Outcome
runWarmFig3(const RunConfig &cfg)
{
    InprocSpec spec;
    spec.preset = "fig3";
    spec.warmup = cfg.tiny ? 20000 : 200000;
    spec.measure = cfg.tiny ? 2000 : 10000;
    spec.warm = true;
    return InprocRun(cfg, spec).run();
}

} // namespace e2ebench
