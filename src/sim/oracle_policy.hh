/**
 * @file
 * Offline-oracle policy: candidate runs and registry wiring.
 *
 * The DP solver and the schedule-replaying controller live in
 * reconfig/oracle.hh; this layer supplies what they need from the
 * simulation stack. One probe runs per candidate configuration -- the
 * full horizon on the oracle point's own derived seed, with a
 * pass-through controller pinning the configuration while a
 * TimeSeriesRecorder captures per-interval cycle costs -- and its rows
 * feed solveOracleSchedule().
 *
 * The shipped oracle is *best-of*, not DP-only: alongside the DP
 * schedule and the fixed-configuration probes, every reactive
 * competitor (reactiveCompetitors()) is a candidate whose schedule is
 * its recorded per-commit target trajectory on the oracle's stream,
 * and the candidate with the fewest measured cycles wins. Replaying a
 * reactive trajectory keyed on the committed-instruction count
 * reproduces that run exactly (the committed stream is
 * configuration-independent here), so the oracle is >= every reactive
 * policy by construction while the DP component lets it beat them all
 * wherever an interval-grained mixture wins.
 *
 * Every candidate's measured run is, field for field, the run that
 * replaying its schedule gives, so the race keeps the runs:
 * raceOracle() returns the winning schedule with its run. A reactive
 * candidate's run is also the very run of the tournament point that
 * races the same policy on the same stream. runSweep() (sim/sweep.hh)
 * therefore schedules oracle points after their sibling points, passes
 * the siblings' runs in, and reports the winner's run as the oracle
 * point's own: the oracle's task simulates only the fixed probes and
 * the DP replay, and never a winner again. An oracle point with no
 * siblings (a served one-point task) races all ten candidates the same
 * way. A constant DP schedule would replay the fixed probe ranked
 * ahead of it, so it is not replayed. A handle's factory (for a caller
 * that runs the point itself) races every candidate to record the
 * winning schedule; the schedule is the same either way.
 *
 * registerOraclePolicy() publishes the policy as "oracle" in the
 * controller registry (reconfig/registry.hh). Building a handle is
 * cheap (building a preset, or listing presets, runs nothing); every
 * call of its factory computes the schedule afresh.
 *
 * The canonical key spells out bench, configs, seed, horizon, warmup,
 * interval, and penalty, and oracleParamsFromKey() inverts it exactly.
 * horizon (warmup + measure of the run point) is deliberately part of
 * the identity: the schedule depends on it, and warmup checkpoint
 * identities exclude the measure length, so two points differing only
 * in measure must not share a warmup under one key.
 */

#ifndef CLUSTERSIM_SIM_ORACLE_POLICY_HH
#define CLUSTERSIM_SIM_ORACLE_POLICY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reconfig/registry.hh"
#include "sim/sweep.hh"

namespace clustersim {

/** Identity of one oracle schedule (all of it lands in the key). */
struct OraclePolicyParams {
    std::string bench;         ///< benchmark model name
    std::uint64_t seed = 0;    ///< exact workload seed of the run point
    std::uint64_t horizon = 0; ///< instructions covered: warmup+measure
    /**
     * Instructions before the run point's measure window opens
     * (< horizon). Candidates are scored on measured cycles *after*
     * this boundary -- the window the tournament actually reports --
     * not on whole-horizon cycles, so a candidate cannot win on a fast
     * warmup it is never scored for.
     */
    std::uint64_t warmup = 0;
    std::uint64_t interval = 10000; ///< schedule slot, instructions
    double penaltyCycles = 200.0;   ///< cost per configuration switch
    /** Candidate configurations, ascending. */
    std::vector<int> configs = {2, 4, 8, 16};
};

/** One reactive policy the oracle must bound, as the tournament races
 *  it. */
struct ReactiveCompetitor {
    std::string label;   ///< tournament run-point label
    std::string policy;  ///< registry policy name
    PolicyParams params; ///< registry parameters
};

/**
 * The reactive lineup, in the oracle's candidate order. The tournament
 * preset races exactly these beside the oracle, so every candidate has
 * a sibling point of equal identity.
 */
const std::vector<ReactiveCompetitor> &reactiveCompetitors();

/**
 * The run point competitor `c` races as on the oracle's stream: its
 * label, the 16-cluster machine, the oracle's benchmark with `p.seed`
 * already applied, and the oracle's warmup and measure window. A sweep
 * point with pointIdentityKey() equal to this point's (under its label
 * and `p.seed`) runs exactly this candidate's simulation.
 */
RunPoint reactiveCandidatePoint(const OraclePolicyParams &p,
                                const ReactiveCompetitor &c);

/**
 * The oracle's own run point: the candidates' machine, stream and
 * window, with the oracle's controller (makeOracleHandle(p)). A sweep
 * point with pointIdentityKey() equal to this point's (under the sweep
 * point's label and `p.seed`) is the point every candidate races as,
 * so the race's winning run is that point's run.
 */
RunPoint oracleRunPoint(const OraclePolicyParams &p);

/** Canonical key of the oracle with these params (its handle's key). */
std::string oracleKey(const OraclePolicyParams &p);

/**
 * Inverse of oracleKey(): the params whose key is exactly `key`, or
 * nullopt for another policy's key or a malformed one.
 */
std::optional<OraclePolicyParams>
oracleParamsFromKey(const std::string &key);

/** A resolved oracle schedule: per-slot targets keyed on the committed
 *  instruction count (slotLength = 1 for a per-commit trajectory). */
struct OracleSchedule {
    std::uint64_t slotLength = 1;
    std::vector<int> targets;
};

/** Runs of reactive candidates measured elsewhere on the oracle's
 *  stream (the sweep points that race them), by competitor label. */
using KnownRuns = std::map<std::string, SimResult>;

/** The winner of raceOracle(). */
struct OracleRace {
    /** The winning schedule. Its targets are empty when the winner is
     *  a known run, whose trajectory was never recorded. */
    OracleSchedule schedule;
    /** The winner's measured run, field for field the run that
     *  replaying `schedule` on oracleRunPoint(p) gives; its config is
     *  the candidate's own. */
    SimResult run;
};

/**
 * The best-of oracle: race the DP schedule, every fixed configuration,
 * and every reactive competitor's recorded trajectory over the horizon
 * on the oracle point's own stream, and return the candidate with the
 * fewest measured cycles. Ties resolve to the earliest candidate in a
 * fixed order (fixed configs ascending, then the DP mixture, then the
 * reactive trajectories). A competitor in `known` is scored on its
 * given run instead of being simulated, and if it wins that run is the
 * result. A constant DP schedule is not replayed: it would replay the
 * fixed probe ahead of it. Deterministic in the params: `known`
 * changes only the work done and whether a schedule is recorded.
 */
OracleRace raceOracle(const OraclePolicyParams &p,
                      const KnownRuns &known = {});

/** The oracle controller replaying raceOracle(p)'s schedule. */
std::unique_ptr<ReconfigController>
makeOracleController(const OraclePolicyParams &p);

/** Handle for an oracle controller with the given identity. Building
 *  it is cheap; its factory races every candidate on each call. */
ControllerHandle makeOracleHandle(const OraclePolicyParams &p);

/** Idempotently register "oracle" in the controller registry. Params:
 *  bench, seed, horizon (required); warmup, interval, penalty
 *  (optional). */
void registerOraclePolicy();

} // namespace clustersim

#endif // CLUSTERSIM_SIM_ORACLE_POLICY_HH
