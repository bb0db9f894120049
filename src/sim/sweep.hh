/**
 * @file
 * Parallel sweep engine with structured metrics export.
 *
 * Every figure and table in the paper is a sweep over (benchmark x
 * configuration x controller) points. The engine executes a list of
 * independent RunPoints on a fixed-size worker pool and collects the
 * SimResults in submission order. Results are bit-identical regardless
 * of thread count or scheduling order: each run gets its own workload
 * copy, a fresh controller from its factory (an oracle point instead
 * reports its race's winning run), and an RNG seed derived
 * deterministically from the benchmark and the point's label or
 * seedTag.
 *
 * The sweep-level JSON report (sweepReportJson) captures run metadata,
 * per-run metrics, and wall-clock + aggregate statistics, giving every
 * experiment a fast, scriptable, machine-readable regression surface;
 * summarizeSweep() condenses a finished sweep into the figure's tables.
 */

#ifndef CLUSTERSIM_SIM_SWEEP_HH
#define CLUSTERSIM_SIM_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "reconfig/controller.hh"
#include "sim/simulation.hh"

namespace clustersim {

class JsonWriter;
class WarmupCheckpointStore;

/** One independent unit of sweep work. */
struct RunPoint {
    /** Display label for the machine variant (defaults to cfg.name). */
    std::string label;
    ProcessorConfig cfg;
    WorkloadSpec workload;
    /** Fresh controller per run; null for static configurations. */
    std::function<std::unique_ptr<ReconfigController>()> makeController;
    std::uint64_t warmup = defaultWarmup;
    std::uint64_t measure = defaultMeasure;
    /**
     * Identity key of makeController's output, part of the point's
     * identity for the result cache and its warmup's identity for the
     * checkpoint store (sim/plan.hh). std::function is opaque, so a
     * point with a controller but an empty key is never cached or
     * checkpointed (always correct, just slower).
     */
    std::string controllerKey;
    /**
     * When non-empty, replaces the label in derived-seed computation:
     * seed = sweepSeed(base, benchmark, seedTag). Points of one
     * benchmark sharing a tag race the *same* instruction stream, so
     * their metrics compare head-to-head (the comparison presets tag
     * every variant "paper", the tournament "tournament"). Empty (the
     * default) derives one stream per label.
     */
    std::string seedTag;
};

/** Sweep execution options. */
struct SweepOptions {
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int threads = 0;
    /**
     * Called as each run completes (from worker threads, serialized
     * internally under a clustersim::Mutex -- see
     * common/thread_annotations.hh); for progress reporting. Must not
     * re-enter the sweep API: the completion lock is held while it
     * runs.
     */
    std::function<void(std::size_t index, const SimResult &)> onComplete;
    /**
     * Optional persistent warmup-checkpoint store (sim/checkpoint.hh;
     * not owned, shared across concurrent sweeps). When set, points
     * with a declared warmup identity restore the post-warmup machine
     * state from disk instead of re-simulating it, and cold points
     * persist theirs after warming. Results are bit-identical either
     * way; the store only changes wall time. Null disables warm starts.
     */
    WarmupCheckpointStore *checkpoints = nullptr;
};

/** One completed run: the result plus execution bookkeeping. */
struct SweepRun {
    SimResult result;
    std::uint64_t seed = 0;      ///< workload seed actually used
    /** This run alone, building its controller included. An oracle
     *  point's race counts here (its probes, DP replay and any
     *  candidate no sibling ran); the time it waits for its sibling
     *  points (see runSweep) does not. */
    double wallSeconds = 0.0;
    /** Warmup was restored from the checkpoint store, not simulated.
     *  Always false for an oracle point that reports its race's
     *  winner: it neither loads nor stores a checkpoint. */
    bool warmStart = false;
};

/** All results of a sweep, in submission order. */
struct SweepResult {
    std::vector<SweepRun> runs;
    int threads = 1;             ///< workers actually used
    double wallSeconds = 0.0;    ///< whole sweep, wall clock
    /** Sum of per-run wall times (the serial-equivalent cost). */
    double cpuSeconds() const;
    /** cpuSeconds()/wallSeconds: observed parallel speedup. */
    double speedup() const;
};

/**
 * Deterministic per-run seed: a hash of the workload's base seed and
 * the (benchmark, config) labels. Stable across platforms and runs.
 */
std::uint64_t sweepSeed(std::uint64_t base, const std::string &benchmark,
                        const std::string &config);

/**
 * Execute all points on a worker pool and return results in submission
 * order. Bit-identical output for any thread count. This is the one
 * way a point runs: tools/sweep calls it per sweep, the sweep server
 * once per point. Every point is fed inline by the synthetic
 * generator. A point with a checkpoint key restores its warmup -- the
 * core's state and the generator's -- from opts.checkpoints (or warms
 * up and stores it), so a warm start generates only its measure
 * window. Restore is exact, so reports match either way.
 *
 * A point whose controllerKey is an oracle key (sim/oracle_policy.hh)
 * and whose identity is the oracle's own run point (oracleRunPoint())
 * runs after every other point. It builds no controller and runs no
 * simulation of its own: it races its candidates with raceOracle(),
 * handing in the runs of every point whose pointIdentityKey() equals
 * one of its reactive candidates (waiting for any still in flight),
 * and reports the winner's run under its own label. Its run is the
 * one the handle's schedule would replay, so the report is the same.
 * Any other point with an oracle key runs through its handle.
 */
SweepResult runSweep(const std::vector<RunPoint> &points,
                     const SweepOptions &opts = {});

/** Serialize one SimResult as a JSON object. */
void toJson(JsonWriter &w, const SimResult &r);

/** Serialize one SimResult as a standalone JSON document. */
std::string toJson(const SimResult &r);

/**
 * Write the per-run report fields of one completed run (benchmark,
 * config, seed, [wall_seconds,] warmup, measure, metrics) into the
 * currently open JSON object. The single serialization point for run
 * entries: sweepReportJson() and the serve-layer result cache both
 * emit through here, so a cache-replayed entry is byte-identical to a
 * freshly computed one. `wall_seconds` is written only when non-null
 * (timing reports).
 */
void pointFieldsJson(JsonWriter &w, const SimResult &r,
                     std::uint64_t seed, std::uint64_t warmup,
                     std::uint64_t measure, const double *wall_seconds);

/**
 * Standalone payload of one finished point: exactly the run-entry
 * fields of pointFieldsJson() (no wall clock) as an object document.
 * This is the byte format stored in the serve-layer content-addressed
 * cache and spliced back into replayed reports.
 */
std::string pointPayloadJson(const SimResult &r, std::uint64_t seed,
                             std::uint64_t warmup, std::uint64_t measure);

/** One report entry for assembleSweepReport(): the payload bytes plus
 *  the fields the aggregate and ranking blocks need. */
struct ReportEntry {
    std::string payload;          ///< pointPayloadJson() bytes
    double ipc = 0.0;
    double avgActiveClusters = 0.0;
    std::string benchmark;        ///< run-point benchmark name
    std::string config;           ///< run-point label (policy variant)
};

/**
 * Assemble a deterministic (no-timing) sweep report from per-point
 * payloads in submission order. sweepReportJson(include_timing=false)
 * delegates here, so a report assembled from cached payloads is
 * byte-identical to one computed live -- the identity the sweep
 * server's conformance rig asserts.
 *
 * Reports named "tournament" additionally carry a "ranking" array (see
 * sweepRankingJson below); every other report's bytes are unchanged.
 */
std::string assembleSweepReport(const std::string &name,
                                const std::vector<ReportEntry> &entries);

/**
 * The controller-tournament ranked table: entries grouped by config
 * label (one group per policy), scored on IPC (geometric mean across
 * benchmarks -- the paper's figure-of-merit) and on leakage savings
 * from the sim/energy model, ranked by IPC geomean with deterministic
 * name tie-breaks. Emitted into tournament reports by
 * assembleSweepReport()/sweepReportJson(); exposed for tests.
 */
void sweepRankingJson(JsonWriter &w,
                      const std::vector<ReportEntry> &entries);

/**
 * The figure summary of a finished sweep (tools/sweep prints it).
 *
 * Runs group by label prefix, the part of a label before its last '/'
 * ("slow-hops/static-4" is in group "slow-hops"); labels without one
 * share the unnamed group. Each group holds a benchmarks x labels IPC
 * grid and, per label:
 *  - vsFirst: the geomean IPC ratio over the group's first label;
 *  - for a label with a controller, in a group with static labels
 *    (points without a controller): the geomean speedup over the best
 *    fixed static label (the one with the highest IPC geomean) and
 *    over the per-benchmark best static label; NaN otherwise;
 *  - the means across benchmarks of active clusters, leakage savings
 *    (sim/energy) and avg_reg_comm_latency.
 * Labels aggregate exactly as the tournament ranking's policies do.
 */
struct SweepSummary {
    struct Label {
        std::string label;
        bool controller = false;
        std::vector<double> ipc; ///< per group benchmark; NaN if absent
        double ipcAmean = 0.0;
        double ipcGeomean = 0.0;
        double vsFirst = 1.0;
        double vsBestFixed = 0.0;  ///< NaN when not applicable
        double vsBestStatic = 0.0; ///< NaN when not applicable
        double activeMean = 0.0;
        double leakageSavingsMean = 0.0;
        double regCommLatencyMean = 0.0;
    };
    struct Group {
        std::string name; ///< label prefix; empty for unprefixed labels
        std::vector<std::string> benchmarks;
        std::vector<Label> labels;
    };
    std::vector<Group> groups;

    /** Per group: the IPC table with AM and GM rows and each row's best
     *  label, then the per-label table. */
    std::string format() const;
};

SweepSummary summarizeSweep(const std::vector<RunPoint> &points,
                            const SweepResult &res);

/**
 * Sweep-level JSON report.
 *
 * Schema (all keys always present):
 *   {
 *     "schema": "clustersim-sweep-v1",
 *     "sweep": {"name", "threads", "run_points",
 *               "wall_seconds", "cpu_seconds", "parallel_speedup"},
 *     "runs": [{"index", "benchmark", "config", "seed",
 *               "wall_seconds", "warmup", "measure",
 *               "metrics": {<SimResult fields>}}, ...],
 *     "aggregates": {"ipc_amean", "ipc_geomean",
 *                    "avg_active_clusters_amean"}
 *   }
 *
 * With include_timing=false the wall-clock fields (sweep wall_seconds /
 * cpu_seconds / parallel_speedup and per-run wall_seconds) are omitted,
 * leaving only deterministic content: the report is then byte-identical
 * for any thread count.
 */
std::string sweepReportJson(const std::string &name,
                            const std::vector<RunPoint> &points,
                            const SweepResult &res,
                            bool include_timing = true);

} // namespace clustersim

#endif // CLUSTERSIM_SIM_SWEEP_HH
