#include "sim/oracle_policy.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/parse.hh"
#include "reconfig/oracle.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "trace/timeseries.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

namespace {

/**
 * Pass-through probe: pins one configuration while recording the
 * per-interval time series of the committed stream. Unlike the
 * processor-side trace hooks (compile-time gated), feeding the
 * recorder from a controller works in every build.
 */
class RecordingProbeController : public ReconfigController
{
  public:
    RecordingProbeController(int fixed, std::uint64_t interval)
        : fixed_(fixed)
    {
        recorder_.configure(interval);
    }

    void
    onCommit(const CommitEvent &ev) override
    {
        recorder_.onCommit(ev.op, ev.distant, ev.cycle, fixed_);
    }

    int targetClusters() const override { return fixed_; }
    std::string name() const override { return "oracle-probe"; }

    const std::vector<TimeSeriesRow> &rows() const
    {
        return recorder_.rows();
    }

  private:
    int fixed_;
    TimeSeriesRecorder recorder_;
};

/**
 * Wraps a reactive policy and records its per-commit target
 * trajectory: targets()[n] is the desired cluster count in force after
 * the n-th commit (index 0 is the post-attach target). Replaying the
 * trajectory keyed on the committed count reproduces the wrapped
 * policy's run exactly, because the committed stream is
 * configuration-independent and every policy here is a deterministic
 * function of it.
 */
class TrajectoryProbeController : public ReconfigController
{
  public:
    explicit TrajectoryProbeController(
        std::unique_ptr<ReconfigController> inner)
        : inner_(std::move(inner))
    {
        CSIM_ASSERT(inner_ != nullptr);
    }

    void
    attach(int hw_clusters, int initial) override
    {
        ReconfigController::attach(hw_clusters, initial);
        inner_->attach(hw_clusters, initial);
        targets_.clear();
        targets_.push_back(inner_->targetClusters());
    }

    void
    onCommit(const CommitEvent &ev) override
    {
        inner_->onCommit(ev);
        targets_.push_back(inner_->targetClusters());
    }

    int
    targetClusters() const override
    {
        return inner_->targetClusters();
    }

    std::string name() const override { return "oracle-probe"; }

    const std::vector<int> &targets() const { return targets_; }

  private:
    std::unique_ptr<ReconfigController> inner_;
    std::vector<int> targets_;
};

} // namespace

std::string
oracleKey(const OraclePolicyParams &p)
{
    std::string cfgs;
    for (std::size_t i = 0; i < p.configs.size(); i++) {
        if (i)
            cfgs += '.';
        cfgs += std::to_string(p.configs[i]);
    }
    return "oracle{bench=" + p.bench +
           ";configs=" + cfgs +
           ";horizon=" + std::to_string(p.horizon) +
           ";interval=" + std::to_string(p.interval) +
           ";penalty=" + canonicalNumber(p.penaltyCycles) +
           ";seed=" + std::to_string(p.seed) +
           ";warmup=" + std::to_string(p.warmup) + "}";
}

namespace {

std::uint64_t
requiredU64(const PolicyParams &params, const std::string &key)
{
    auto it = params.find(key);
    CSIM_ASSERT(it != params.end(),
                "oracle: required parameter '", key, "' missing");
    std::optional<std::uint64_t> v =
        parseNumber<std::uint64_t>(it->second);
    CSIM_ASSERT(v, "oracle: unparsable '", key, "': ", it->second);
    return *v;
}

void
checkOracleParams(const OraclePolicyParams &p)
{
    CSIM_ASSERT(!p.bench.empty() && p.horizon > 0 && p.interval >= 100);
    CSIM_ASSERT(p.warmup < p.horizon);
    CSIM_ASSERT(!p.configs.empty());
}

WorkloadSpec
oracleWorkload(const OraclePolicyParams &p)
{
    WorkloadSpec w = makeBenchmark(p.bench);
    w.seed = p.seed;
    return w;
}

/**
 * Probe each candidate configuration on the oracle run's machine and
 * stream: the committed stream is configuration-independent here
 * (fetch-gated mispredicts, no wrong-path commits), so the rows of
 * every probe are aligned at the same committed-instruction
 * boundaries. `cycles[k]` receives each probe run's measured total.
 */
std::vector<std::vector<TimeSeriesRow>>
runFixedProbes(const OraclePolicyParams &p,
               std::vector<std::uint64_t> &cycles)
{
    WorkloadSpec w = oracleWorkload(p);
    std::vector<std::vector<TimeSeriesRow>> rows;
    for (int c : p.configs) {
        RecordingProbeController probe(c, p.interval);
        SimResult r = runSimulation(clusteredConfig(maxClusters), w,
                                    &probe, p.warmup,
                                    p.horizon - p.warmup);
        rows.push_back(probe.rows());
        cycles.push_back(r.cycles);
    }
    return rows;
}

/** Run one reactive competitor on the oracle's stream, recording its
 *  per-commit trajectory; returns its measure-window cycles. */
std::uint64_t
runReactiveCandidate(const OraclePolicyParams &p,
                     const ReactiveCompetitor &c, std::vector<int> &targets)
{
    RunPoint pt = reactiveCandidatePoint(p, c);
    TrajectoryProbeController probe(pt.makeController());
    SimResult r = runSimulation(pt.cfg, pt.workload, &probe, pt.warmup,
                                pt.measure);
    targets = probe.targets();
    return r.cycles;
}

} // namespace

const std::vector<ReactiveCompetitor> &
reactiveCompetitors()
{
    static const std::vector<ReactiveCompetitor> lineup = {
        {"ivl-explore", "ivl-explore", {}},
        {"ivl-ilp-10K", "ivl-ilp", {{"interval", "10000"}}},
        {"fg-branch", "fg-branch", {}},
        {"fg-subroutine", "fg-subroutine", {}},
        {"ineffectuality", "ineffectuality", {}},
    };
    return lineup;
}

RunPoint
reactiveCandidatePoint(const OraclePolicyParams &p,
                       const ReactiveCompetitor &c)
{
    ControllerHandle h = makeController(c.policy, c.params);
    RunPoint pt;
    pt.label = c.label;
    pt.cfg = clusteredConfig(maxClusters);
    pt.workload = oracleWorkload(p);
    pt.makeController = std::move(h.make);
    pt.controllerKey = std::move(h.key);
    pt.warmup = p.warmup;
    pt.measure = p.horizon - p.warmup;
    return pt;
}

std::optional<OraclePolicyParams>
oracleParamsFromKey(const std::string &key)
{
    const std::string head = "oracle{";
    if (key.rfind(head, 0) != 0 || key.back() != '}')
        return std::nullopt;

    PolicyParams fields;
    const std::string body =
        key.substr(head.size(), key.size() - head.size() - 1);
    for (std::size_t at = 0; at <= body.size();) {
        std::size_t end = std::min(body.find(';', at), body.size());
        std::size_t eq = body.find('=', at);
        if (eq >= end ||
            !fields.emplace(body.substr(at, eq - at),
                            body.substr(eq + 1, end - eq - 1))
                 .second)
            return std::nullopt;
        at = end + 1;
    }
    auto number = [&](const char *name, auto &out) {
        auto it = fields.find(name);
        auto v = parseNumber<std::decay_t<decltype(out)>>(
            it == fields.end() ? "" : it->second);
        if (v)
            out = *v;
        return v.has_value();
    };
    OraclePolicyParams p;
    if (!fields.count("bench") || !fields.count("configs") ||
        !number("horizon", p.horizon) ||
        !number("interval", p.interval) ||
        !number("penalty", p.penaltyCycles) || !number("seed", p.seed) ||
        !number("warmup", p.warmup))
        return std::nullopt;
    p.bench = fields["bench"];
    p.configs.clear();
    const std::string &configs = fields["configs"];
    for (std::size_t at = 0; at <= configs.size();) {
        std::size_t end = std::min(configs.find('.', at), configs.size());
        std::optional<int> c =
            parseNumber<int>(configs.substr(at, end - at));
        if (!c)
            return std::nullopt;
        p.configs.push_back(*c);
        at = end + 1;
    }
    // Re-encoding rejects everything the field parse let through:
    // extra or reordered fields, non-canonical numbers.
    if (oracleKey(p) != key)
        return std::nullopt;
    return p;
}

OracleSchedule
computeBestOracleSchedule(const OraclePolicyParams &p,
                          const KnownCycles &known)
{
    checkOracleParams(p);
    WorkloadSpec w = oracleWorkload(p);
    ProcessorConfig cfg = clusteredConfig(maxClusters);

    const std::uint64_t measure = p.horizon - p.warmup;
    std::uint64_t best_cycles = ~std::uint64_t(0);
    OracleSchedule best;
    // The leader when it is a known reactive candidate whose
    // trajectory has not been recorded yet.
    const ReactiveCompetitor *unrecorded = nullptr;
    auto consider = [&](std::uint64_t cycles, OracleSchedule candidate,
                        const ReactiveCompetitor *known_competitor) {
        // Strict '<' in consideration order: fixed configurations
        // ascending, then the DP mixture, then the reactive
        // trajectories. Ties go to the earliest (simplest) candidate.
        if (cycles < best_cycles) {
            best_cycles = cycles;
            best = std::move(candidate);
            unrecorded = known_competitor;
        }
    };

    // Fixed-configuration probes: their rows feed the DP, and each run
    // competes directly as a constant schedule. All probes score on
    // measure-window cycles (commits past p.warmup), the window the
    // run point reports.
    std::vector<std::uint64_t> fixed_cycles;
    std::vector<std::vector<TimeSeriesRow>> rows =
        runFixedProbes(p, fixed_cycles);
    for (std::size_t k = 0; k < p.configs.size(); k++)
        consider(fixed_cycles[k], {p.interval, {p.configs[k]}}, nullptr);

    // The DP's cost is a prediction stitched from per-probe rows
    // (cross-interval state differs in a composed run), so the mixture
    // competes on a measured replay, same as everything else.
    std::vector<int> dp =
        solveOracleSchedule(p.configs, rows, p.penaltyCycles);
    if (!dp.empty()) {
        OracleController replay(p.interval, dp);
        SimResult r = runSimulation(cfg, w, &replay, p.warmup, measure);
        consider(r.cycles, {p.interval, std::move(dp)}, nullptr);
    }

    // Every reactive competitor is a candidate on the oracle's stream;
    // its recorded trajectory is a per-commit schedule whose replay
    // reproduces the run exactly. The winner therefore bounds the
    // whole reactive field from above by construction.
    for (const ReactiveCompetitor &c : reactiveCompetitors()) {
        auto it = known.find(c.label);
        if (it != known.end()) {
            consider(it->second, {}, &c);
            continue;
        }
        std::vector<int> targets;
        std::uint64_t cycles = runReactiveCandidate(p, c, targets);
        consider(cycles, {1, std::move(targets)}, nullptr);
    }
    if (unrecorded) {
        std::vector<int> targets;
        std::uint64_t cycles = runReactiveCandidate(p, *unrecorded,
                                                    targets);
        CSIM_ASSERT(cycles == best_cycles, "oracle: ",
                    unrecorded->label, " re-run takes ", cycles,
                    " cycles, its known run ", best_cycles);
        best = {1, std::move(targets)};
    }

    CSIM_ASSERT(!best.targets.empty());
    return best;
}

std::unique_ptr<ReconfigController>
makeOracleController(const OraclePolicyParams &p,
                     const KnownCycles &known)
{
    OracleSchedule s = computeBestOracleSchedule(p, known);
    return std::make_unique<OracleController>(s.slotLength,
                                              std::move(s.targets));
}

ControllerHandle
makeOracleHandle(const OraclePolicyParams &p)
{
    CSIM_ASSERT(!p.bench.empty() && p.horizon > 0 && p.interval >= 100);
    return {oracleKey(p), [p] { return makeOracleController(p); }};
}

void
registerOraclePolicy()
{
    static const bool registered = [] {
        registerControllerPolicy(
            "oracle", [](const PolicyParams &params) {
                for (const auto &kv : params)
                    CSIM_ASSERT(kv.first == "bench" ||
                                    kv.first == "seed" ||
                                    kv.first == "horizon" ||
                                    kv.first == "warmup" ||
                                    kv.first == "interval" ||
                                    kv.first == "penalty",
                                "oracle: unknown parameter '",
                                kv.first, "'");
                OraclePolicyParams p;
                auto bench = params.find("bench");
                CSIM_ASSERT(bench != params.end(),
                            "oracle: required parameter 'bench' "
                            "missing");
                p.bench = bench->second;
                p.seed = requiredU64(params, "seed");
                p.horizon = requiredU64(params, "horizon");
                if (params.find("warmup") != params.end())
                    p.warmup = requiredU64(params, "warmup");
                auto ivl = params.find("interval");
                if (ivl != params.end())
                    p.interval = requiredU64(params, "interval");
                auto pen = params.find("penalty");
                if (pen != params.end()) {
                    std::optional<double> v =
                        parseNumber<double>(pen->second);
                    CSIM_ASSERT(v, "oracle: unparsable 'penalty': ",
                                pen->second);
                    p.penaltyCycles = *v;
                }
                return makeOracleHandle(p);
            });
        return true;
    }();
    (void)registered;
}

} // namespace clustersim
