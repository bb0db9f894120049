// simlint: thread-launcher -- runSweep() owns the classic worker pool;
// threads are joined before it returns

#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "check/invariant.hh"
#include "common/thread_annotations.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/checkpoint.hh"
#include "sim/energy.hh"
#include "sim/oracle_policy.hh"
#include "sim/plan.hh"
#include "trace/timeseries.hh"
#include "workload/synthetic.hh"

namespace clustersim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    // simlint-ignore(D002): wall-clock feeds only the wall_seconds /
    // cpu_seconds report fields, which --no-timing strips from every
    // deterministic (golden, byte-identity) report
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Checkpoint-aware variant of runSimulation(): the same generator-fed
 * run, restoring the post-warmup state -- the core's and the
 * generator's -- from the store when a payload decodes, and storing it
 * when not. A warm start therefore generates only what its measure
 * window fetches. Restore is exact, so results stay bit-identical to
 * the cold path. Returns whether the warmup was restored rather than
 * run.
 */
bool
runCheckpointed(WarmupCheckpointStore &store, const std::string &key,
                const ProcessorConfig &cfg, const WorkloadSpec &workload,
                ReconfigController *controller, std::uint64_t warmup,
                std::uint64_t measure, SimResult &res)
{
    // Mirror runSimulation(): in a check build, validate by default.
    std::optional<InvariantChecker> own_checker;
    std::optional<CheckScope> own_scope;
    if (CLUSTERSIM_CHECK_ENABLED && !currentChecker()) {
        own_checker.emplace(/*fail_fast=*/true);
        own_scope.emplace(*own_checker);
    }

    SyntheticWorkload trace(workload);
    Processor proc(cfg, &trace, controller);

    // A payload is a hit only once it decodes against this processor;
    // one that does not (a stale format, another source kind) is a
    // miss like a corrupt file, and nothing is restored from it. On a
    // miss the lease is held until the warmup is stored, so a
    // concurrent point with the same key restores it instead of
    // recomputing.
    WarmupCheckpointStore::ComputeLease lease;
    bool restored = store.loadOrLease(
        key, lease, [&](const std::string &payload) {
            Processor::Snapshot donor = proc.snapshot();
            if (!deserializeSnapshot(payload, donor))
                return false;
            proc.restore(donor);
            return true;
        });
    if (!restored) {
        proc.run(warmup);
        store.store(key, serializeSnapshot(proc.snapshot()));
    }
    lease = {};
    proc.resetStats();

    res = measureWindow(proc, measure);
    res.benchmark = workload.name;
    res.config = cfg.name;
    return restored;
}

/** An oracle point's work: its params and the sweep points that run
 *  some of its reactive candidates, by competitor label. */
struct OracleJob {
    OraclePolicyParams params;
    std::vector<std::pair<std::string, std::size_t>> siblings;
};

/**
 * The oracle points of a sweep, each with its siblings: the points
 * whose identity equals one of its reactive candidates. Such a point
 * runs the very simulation the candidate would, so the oracle reads its
 * run instead of repeating it. A point is an oracle job only when it
 * is the race's own run point (oracleRunPoint()), so the race's winning
 * run is its run; any other point with an oracle key (say, one whose
 * machine a served override changed) runs through its handle like
 * every controller point. nullopt for every point but a job.
 */
std::vector<std::optional<OracleJob>>
planOracleJobs(const std::vector<RunPoint> &points,
               const std::vector<PlannedPoint> &plan)
{
    std::vector<std::optional<OracleJob>> jobs(points.size());
    bool any = false;
    for (std::size_t i = 0; i < points.size(); i++) {
        if (!points[i].makeController)
            continue;
        std::optional<OraclePolicyParams> params =
            oracleParamsFromKey(points[i].controllerKey);
        if (!params ||
            pointIdentityKey(oracleRunPoint(*params), plan[i].label,
                             params->seed) !=
                pointIdentityKey(points[i], plan[i].label, plan[i].seed))
            continue;
        jobs[i] = OracleJob{std::move(*params), {}};
        any = true;
    }
    if (!any)
        return jobs;

    std::map<std::string, std::size_t> by_identity;
    for (std::size_t i = 0; i < points.size(); i++)
        if (!jobs[i])
            by_identity.emplace(
                pointIdentityKey(points[i], plan[i].label, plan[i].seed),
                i);
    for (std::optional<OracleJob> &job : jobs) {
        if (!job)
            continue;
        for (const ReactiveCompetitor &c : reactiveCompetitors()) {
            RunPoint cand = reactiveCandidatePoint(job->params, c);
            auto it = by_identity.find(
                pointIdentityKey(cand, c.label, job->params.seed));
            if (it != by_identity.end())
                job->siblings.emplace_back(c.label, it->second);
        }
    }
    return jobs;
}

/**
 * Which runs of a sweep have finished. Serializes the onComplete
 * callback and lets an oracle point wait for the sibling runs it
 * reads.
 */
class Completions
{
  public:
    explicit Completions(std::size_t points) : done_(points, false) {}

    /** Mark run `i` finished, calling `report` under the lock first. */
    template <typename Report>
    void
    finish(std::size_t i, const Report &report) CSIM_EXCLUDES(mutex_)
    {
        {
            MutexLock lock(mutex_);
            report();
            done_[i] = true;
        }
        finishedCv_.notify_all();
    }

    /** Block until every sibling run of `job` has finished. */
    void
    awaitSiblings(const OracleJob &job) CSIM_EXCLUDES(mutex_)
    {
        UniqueLock lock(mutex_);
        finishedCv_.wait(lock, [&]() CSIM_REQUIRES(mutex_) {
            for (const auto &sibling : job.siblings)
                if (!done_[sibling.second])
                    return false;
            return true;
        });
    }

  private:
    Mutex mutex_;
    ConditionVariable finishedCv_;
    std::vector<bool> done_ CSIM_GUARDED_BY(mutex_);
};

} // namespace

double
SweepResult::cpuSeconds() const
{
    double s = 0.0;
    for (const SweepRun &r : runs)
        s += r.wallSeconds;
    return s;
}

double
SweepResult::speedup() const
{
    return wallSeconds > 0.0 ? cpuSeconds() / wallSeconds : 1.0;
}

std::uint64_t
sweepSeed(std::uint64_t base, const std::string &benchmark,
          const std::string &config)
{
    // FNV-1a over the labels, then a splitmix64 finalizer so nearby
    // inputs map to decorrelated streams.
    std::uint64_t h = 0xcbf29ce484222325ULL ^ base;
    auto mix = [&h](const std::string &s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // separator so ("ab","c") != ("a","bc")
        h *= 0x100000001b3ULL;
    };
    mix(benchmark);
    mix(config);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    // Seed 0 is a valid PCG state but keep seeds nonzero so "unset"
    // never collides with a derived value.
    return h ? h : 1;
}

SweepResult
runSweep(const std::vector<RunPoint> &points, const SweepOptions &opts)
{
    SweepResult out;
    out.runs.resize(points.size());

    int threads = opts.threads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }
    threads = std::min<int>(threads,
                            std::max<std::size_t>(points.size(), 1));
    out.threads = threads;

    // simlint-ignore(D002): timing-only bookkeeping, never a sim input
    Clock::time_point sweep_start = Clock::now();

    // Canonical per-point identities, shared with the serve-layer
    // cache (sim/plan.hh).
    std::vector<PlannedPoint> plan = planPoints(points, true);
    std::vector<std::optional<OracleJob>> oracles =
        planOracleJobs(points, plan);

    // Oracle points run last: every other point is claimed before any
    // oracle, and no point waits on an oracle, so an oracle's wait for
    // its siblings always ends.
    std::vector<std::size_t> order;
    order.reserve(points.size());
    for (bool oracle_pass : {false, true})
        for (std::size_t i = 0; i < points.size(); i++)
            if (oracles[i].has_value() == oracle_pass)
                order.push_back(i);
    std::atomic<std::size_t> next{0};
    Completions completions(points.size());

    auto worker = [&]() {
        for (;;) {
            std::size_t k = next.fetch_add(1);
            if (k >= order.size())
                return;
            const std::size_t i = order[k];
            const RunPoint &p = points[i];

            WorkloadSpec w = p.workload;
            const std::string &label = plan[i].label;
            w.seed = plan[i].seed;

            // An oracle point's run is its race's winner, read from its
            // siblings' runs where they raced a candidate; the time it
            // waits for them is not its own.
            KnownRuns known;
            if (oracles[i]) {
                completions.awaitSiblings(*oracles[i]);
                for (const auto &[competitor, j] : oracles[i]->siblings)
                    known[competitor] = out.runs[j].result;
            }
            // simlint-ignore(D002): timing-only bookkeeping, never a
            // sim input
            Clock::time_point run_start = Clock::now();
            SweepRun &slot = out.runs[i];
            SimResult r;
            if (oracles[i]) {
                r = raceOracle(oracles[i]->params, known).run;
            } else {
                std::unique_ptr<ReconfigController> ctrl;
                if (p.makeController)
                    ctrl = p.makeController();

                // Points with a declared warmup identity route through
                // the checkpoint path; everything else (store disabled,
                // opaque controller, warmup == 0) runs runSimulation().
                // Both feed the core from the generator and produce
                // identical bytes.
                std::string ckpt_key;
                if (opts.checkpoints && opts.checkpoints->enabled())
                    ckpt_key = opts.checkpoints->keyFor(p, w.seed);
                if (!ckpt_key.empty())
                    slot.warmStart = runCheckpointed(
                        *opts.checkpoints, ckpt_key, p.cfg, w, ctrl.get(),
                        p.warmup, p.measure, r);
                else
                    r = runSimulation(p.cfg, w, ctrl.get(), p.warmup,
                                      p.measure);
            }
            r.config = label;

            slot.result = std::move(r);
            slot.seed = w.seed;
            slot.wallSeconds = secondsSince(run_start);

            completions.finish(i, [&] {
                if (opts.onComplete)
                    opts.onComplete(i, slot.result);
            });
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    out.wallSeconds = secondsSince(sweep_start);
    return out;
}

namespace {

/** Writes each SimResult field as one JSON member. */
struct JsonFields {
    JsonWriter &w;

    template <class T>
    void
    operator()(const char *key, const T &x)
    {
        w.field(key, x);
    }

    void
    operator()(const char *key, const std::vector<TimeSeriesRow> &rows)
    {
        w.key(key);
        timeSeriesJson(w, rows);
    }
};

} // namespace

void
toJson(JsonWriter &w, const SimResult &r)
{
    w.beginObject();
    JsonFields v{w};
    // fields() takes a mutable object so one list serves every visitor;
    // this one only reads.
    const_cast<SimResult &>(r).fields(v);
    w.endObject();
}

std::string
toJson(const SimResult &r)
{
    JsonWriter w;
    toJson(w, r);
    return w.str();
}

void
pointFieldsJson(JsonWriter &w, const SimResult &r, std::uint64_t seed,
                std::uint64_t warmup, std::uint64_t measure,
                const double *wall_seconds)
{
    w.field("benchmark", r.benchmark);
    w.field("config", r.config);
    w.field("seed", seed);
    if (wall_seconds)
        w.field("wall_seconds", *wall_seconds);
    w.field("warmup", warmup);
    w.field("measure", measure);
    w.key("metrics");
    toJson(w, r);
}

std::string
pointPayloadJson(const SimResult &r, std::uint64_t seed,
                 std::uint64_t warmup, std::uint64_t measure)
{
    JsonWriter w;
    w.beginObject();
    pointFieldsJson(w, r, seed, warmup, measure, nullptr);
    w.endObject();
    return w.str();
}

namespace {

void
aggregatesJson(JsonWriter &w, const std::vector<double> &ipcs,
               const std::vector<double> &active)
{
    w.key("aggregates").beginObject();
    w.field("ipc_amean", ipcs.empty() ? 0.0 : amean(ipcs));
    w.field("ipc_geomean", ipcs.empty() ? 0.0 : geomean(ipcs));
    w.field("avg_active_clusters_amean",
            active.empty() ? 0.0 : amean(active));
    w.endObject();
}

/** The ranking block rides only in the tournament preset's reports so
 *  every pre-existing report (golden included) keeps its exact bytes. */
bool
wantsRanking(const std::string &name)
{
    return name == "tournament";
}

/** The scored fields of every run; the payload bytes stay empty. */
std::vector<ReportEntry>
scoredEntries(const SweepResult &res)
{
    std::vector<ReportEntry> entries;
    entries.reserve(res.runs.size());
    for (const SweepRun &run : res.runs)
        entries.push_back({"", run.result.ipc,
                           run.result.avgActiveClusters,
                           run.result.benchmark, run.result.config});
    return entries;
}

/** One config label's entries across benchmarks (one tournament
 *  policy, one summary label), with their aggregates. */
struct LabelRuns {
    std::string label;
    std::vector<std::size_t> runs; ///< entry indices, submission order
    double ipcGeomean = 0.0;
    double ipcAmean = 0.0;
    double activeMean = 0.0;
    double leakageSavingsMean = 0.0;
};

/** Entries grouped by config label, in first-appearance order. */
std::vector<LabelRuns>
groupByLabel(const std::vector<ReportEntry> &entries)
{
    std::vector<LabelRuns> out;
    std::map<std::string, std::size_t> slot;
    for (std::size_t i = 0; i < entries.size(); i++) {
        auto [it, fresh] = slot.emplace(entries[i].config, out.size());
        if (fresh)
            out.push_back({entries[i].config, {}});
        out[it->second].runs.push_back(i);
    }
    for (LabelRuns &g : out) {
        std::vector<double> ipcs, active, savings;
        for (std::size_t i : g.runs) {
            ipcs.push_back(entries[i].ipc);
            active.push_back(entries[i].avgActiveClusters);
            savings.push_back(leakageSavings(entries[i].avgActiveClusters,
                                             maxClusters));
        }
        g.ipcGeomean = geomean(ipcs);
        g.ipcAmean = amean(ipcs);
        g.activeMean = amean(active);
        g.leakageSavingsMean = amean(savings);
    }
    return out;
}

} // namespace

void
sweepRankingJson(JsonWriter &w, const std::vector<ReportEntry> &entries)
{
    // In the tournament grid one label is one policy raced across
    // every benchmark.
    std::vector<LabelRuns> rows = groupByLabel(entries);
    std::sort(rows.begin(), rows.end(),
              [](const LabelRuns &a, const LabelRuns &b) {
                  if (a.ipcGeomean != b.ipcGeomean)
                      return a.ipcGeomean > b.ipcGeomean;
                  return a.label < b.label;
              });

    w.key("ranking").beginArray();
    for (std::size_t i = 0; i < rows.size(); i++) {
        const LabelRuns &r = rows[i];
        w.beginObject();
        w.field("rank", static_cast<std::uint64_t>(i + 1));
        w.field("policy", r.label);
        w.field("ipc_geomean", r.ipcGeomean);
        w.field("ipc_amean", r.ipcAmean);
        w.field("leakage_savings_mean", r.leakageSavingsMean);
        w.field("benchmarks", static_cast<std::uint64_t>(r.runs.size()));
        w.endObject();
    }
    w.endArray();
}

namespace {

constexpr double notApplicable = std::numeric_limits<double>::quiet_NaN();

/** Geomean of num[b] / den[b] over the benchmarks where both exist. */
double
ratioGeomean(const std::vector<double> &num, const std::vector<double> &den)
{
    std::vector<double> ratios;
    for (std::size_t b = 0; b < num.size(); b++)
        if (num[b] > 0.0 && den[b] > 0.0)
            ratios.push_back(num[b] / den[b]);
    return ratios.empty() ? notApplicable : geomean(ratios);
}

/** Fill each label's ratios once its group's IPC grid is complete. */
void
scoreGroup(SweepSummary::Group &g)
{
    const SweepSummary::Label *fixed = nullptr;
    std::vector<double> best_static(g.benchmarks.size(), 0.0);
    for (SweepSummary::Label &l : g.labels) {
        l.ipc.resize(g.benchmarks.size(), notApplicable);
        if (l.controller)
            continue;
        if (!fixed || l.ipcGeomean > fixed->ipcGeomean)
            fixed = &l;
        for (std::size_t b = 0; b < l.ipc.size(); b++)
            best_static[b] = std::max(best_static[b], l.ipc[b]);
    }
    for (SweepSummary::Label &l : g.labels) {
        l.vsFirst = ratioGeomean(l.ipc, g.labels.front().ipc);
        bool scored = l.controller && fixed;
        l.vsBestFixed = scored ? ratioGeomean(l.ipc, fixed->ipc)
                               : notApplicable;
        l.vsBestStatic = scored ? ratioGeomean(l.ipc, best_static)
                                : notApplicable;
    }
}

void
numberCell(Table &t, double v, int precision)
{
    if (std::isnan(v))
        t.cell("-");
    else
        t.cell(v, precision);
}

} // namespace

SweepSummary
summarizeSweep(const std::vector<RunPoint> &points, const SweepResult &res)
{
    CSIM_ASSERT(points.size() == res.runs.size());
    SweepSummary out;
    std::map<std::string, std::size_t> group_at;
    for (const LabelRuns &lr : groupByLabel(scoredEntries(res))) {
        std::size_t cut = lr.label.rfind('/');
        std::string name =
            cut == std::string::npos ? "" : lr.label.substr(0, cut);
        auto [it, fresh] = group_at.emplace(name, out.groups.size());
        if (fresh)
            out.groups.push_back({name, {}, {}});
        SweepSummary::Group &g = out.groups[it->second];

        SweepSummary::Label l;
        l.label = lr.label;
        l.controller = points[lr.runs.front()].makeController != nullptr;
        l.ipcAmean = lr.ipcAmean;
        l.ipcGeomean = lr.ipcGeomean;
        l.activeMean = lr.activeMean;
        l.leakageSavingsMean = lr.leakageSavingsMean;
        std::vector<double> latency;
        for (std::size_t i : lr.runs) {
            const SimResult &r = res.runs[i].result;
            std::size_t b = std::find(g.benchmarks.begin(),
                                      g.benchmarks.end(), r.benchmark) -
                            g.benchmarks.begin();
            if (b == g.benchmarks.size())
                g.benchmarks.push_back(r.benchmark);
            l.ipc.resize(std::max(l.ipc.size(), b + 1), notApplicable);
            l.ipc[b] = r.ipc;
            latency.push_back(r.avgRegCommLatency);
        }
        l.regCommLatencyMean = amean(latency);
        g.labels.push_back(std::move(l));
    }
    for (SweepSummary::Group &g : out.groups)
        scoreGroup(g);
    return out;
}

std::string
SweepSummary::format() const
{
    std::string out;
    for (const Group &g : groups) {
        std::string title = g.name.empty() ? "" : "[" + g.name + "] ";

        std::vector<std::string> headers = {"benchmark"};
        for (const Label &l : g.labels)
            headers.push_back(l.label);
        headers.push_back("best");
        Table grid(headers);
        auto row = [&](const std::string &name, auto value) {
            grid.startRow();
            grid.cell(name);
            const Label *best = nullptr;
            for (const Label &l : g.labels) {
                numberCell(grid, value(l), 2);
                if (!best || value(l) > value(*best))
                    best = &l;
            }
            grid.cell(best->label);
        };
        for (std::size_t b = 0; b < g.benchmarks.size(); b++)
            row(g.benchmarks[b], [b](const Label &l) { return l.ipc[b]; });
        row("AM", [](const Label &l) { return l.ipcAmean; });
        row("GM", [](const Label &l) { return l.ipcGeomean; });
        out += title + "IPC\n" + grid.format() + "\n";

        Table per_label({"label", "vs " + g.labels.front().label,
                         "vs best fixed", "vs best static", "active",
                         "leakage saved", "reg comm cycles"});
        for (const Label &l : g.labels) {
            per_label.startRow();
            per_label.cell(l.label);
            numberCell(per_label, l.vsFirst, 3);
            numberCell(per_label, l.vsBestFixed, 3);
            numberCell(per_label, l.vsBestStatic, 3);
            per_label.cell(l.activeMean, 2);
            per_label.cell(l.leakageSavingsMean, 3);
            per_label.cell(l.regCommLatencyMean, 2);
        }
        out += title + "geomean IPC ratios; means across benchmarks\n" +
               per_label.format() + "\n";
    }
    return out;
}

std::string
assembleSweepReport(const std::string &name,
                    const std::vector<ReportEntry> &entries)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "clustersim-sweep-v1");

    w.key("sweep").beginObject();
    w.field("name", name);
    w.field("run_points", static_cast<std::uint64_t>(entries.size()));
    w.endObject();

    w.key("runs").beginArray();
    for (std::size_t i = 0; i < entries.size(); i++) {
        w.beginObject();
        w.field("index", static_cast<std::uint64_t>(i));
        w.spliceFields(entries[i].payload);
        w.endObject();
    }
    w.endArray();

    if (wantsRanking(name))
        sweepRankingJson(w, entries);

    std::vector<double> ipcs, active;
    for (const ReportEntry &e : entries) {
        ipcs.push_back(e.ipc);
        active.push_back(e.avgActiveClusters);
    }
    aggregatesJson(w, ipcs, active);

    w.endObject();
    return w.str();
}

std::string
sweepReportJson(const std::string &name,
                const std::vector<RunPoint> &points,
                const SweepResult &res, bool include_timing)
{
    CSIM_ASSERT(points.size() == res.runs.size());

    if (!include_timing) {
        // The deterministic report is assembled from standalone point
        // payloads -- the same path the sweep server replays cached
        // points through, which makes live/cached byte-identity
        // structural rather than coincidental.
        std::vector<ReportEntry> entries;
        entries.reserve(res.runs.size());
        for (std::size_t i = 0; i < res.runs.size(); i++) {
            const SweepRun &run = res.runs[i];
            entries.push_back({pointPayloadJson(run.result, run.seed,
                                                points[i].warmup,
                                                points[i].measure),
                               run.result.ipc,
                               run.result.avgActiveClusters,
                               run.result.benchmark,
                               run.result.config});
        }
        return assembleSweepReport(name, entries);
    }

    JsonWriter w;
    w.beginObject();
    w.field("schema", "clustersim-sweep-v1");

    w.key("sweep").beginObject();
    w.field("name", name);
    w.field("threads", res.threads);
    w.field("run_points", static_cast<std::uint64_t>(points.size()));
    w.field("wall_seconds", res.wallSeconds);
    w.field("cpu_seconds", res.cpuSeconds());
    w.field("parallel_speedup", res.speedup());
    w.endObject();

    w.key("runs").beginArray();
    for (std::size_t i = 0; i < res.runs.size(); i++) {
        const SweepRun &run = res.runs[i];
        w.beginObject();
        w.field("index", static_cast<std::uint64_t>(i));
        pointFieldsJson(w, run.result, run.seed, points[i].warmup,
                        points[i].measure, &run.wallSeconds);
        w.endObject();
    }
    w.endArray();

    // Same ranking as the deterministic path: only the scored fields
    // matter.
    if (wantsRanking(name))
        sweepRankingJson(w, scoredEntries(res));

    std::vector<double> ipcs, active;
    for (const SweepRun &run : res.runs) {
        ipcs.push_back(run.result.ipc);
        active.push_back(run.result.avgActiveClusters);
    }
    aggregatesJson(w, ipcs, active);

    w.endObject();
    return w.str();
}

} // namespace clustersim
