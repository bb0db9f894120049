#include "sim/presets.hh"

#include <iterator>

#include "common/logging.hh"
#include "reconfig/registry.hh"
#include "sim/oracle_policy.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

ProcessorConfig
clusteredConfig(int hw_clusters, InterconnectKind kind,
                bool decentralized)
{
    CSIM_ASSERT(hw_clusters >= 1 && hw_clusters <= maxClusters);
    ProcessorConfig cfg;
    cfg.numClusters = hw_clusters;
    cfg.interconnect = kind;
    cfg.l1.decentralized = decentralized;
    cfg.name = "clustered-" + std::to_string(hw_clusters) +
               (kind == InterconnectKind::Grid ? "-grid" : "-ring") +
               (decentralized ? "-dcache" : "");
    return cfg;
}

ProcessorConfig
staticSubsetConfig(int active, InterconnectKind kind,
                   bool decentralized)
{
    ProcessorConfig cfg = clusteredConfig(maxClusters, kind,
                                          decentralized);
    cfg.activeClustersAtReset = active;
    cfg.name = "static-" + std::to_string(active) +
               (kind == InterconnectKind::Grid ? "-grid" : "-ring") +
               (decentralized ? "-dcache" : "");
    return cfg;
}

ProcessorConfig
fewerResourcesConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.cluster.intIssueQueue = 10;
    cfg.cluster.fpIssueQueue = 10;
    cfg.cluster.intRegs = 20;
    cfg.cluster.fpRegs = 20;
    cfg.name = "sens-fewer-resources";
    return cfg;
}

ProcessorConfig
moreResourcesConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.cluster.intIssueQueue = 20;
    cfg.cluster.fpIssueQueue = 20;
    cfg.cluster.intRegs = 40;
    cfg.cluster.fpRegs = 40;
    cfg.name = "sens-more-resources";
    return cfg;
}

ProcessorConfig
moreFusConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.cluster.intAlus = 2;
    cfg.cluster.intMultDivs = 2;
    cfg.cluster.fpAlus = 2;
    cfg.cluster.fpMultDivs = 2;
    cfg.name = "sens-more-fus";
    return cfg;
}

ProcessorConfig
slowHopsConfig()
{
    ProcessorConfig cfg = clusteredConfig(maxClusters);
    cfg.hopLatency = 2;
    cfg.name = "sens-slow-hops";
    return cfg;
}

// --- Controller factories -------------------------------------------------
// Thin wrappers over the policy registry (reconfig/registry.hh), kept
// for direct construction in tests and the fuzz driver; presets use
// registry handles so every preset point carries the policy's
// canonical key.

std::unique_ptr<ReconfigController>
makeExploreController()
{
    // Registry defaults are the paper values (10K initial interval;
    // max interval 1B scaled to 10M with this repo's run lengths).
    return makeController("ivl-explore").make();
}

std::unique_ptr<ReconfigController>
makeIlpController(std::uint64_t interval)
{
    return makeController("ivl-ilp",
                          {{"interval", std::to_string(interval)}})
        .make();
}

std::unique_ptr<ReconfigController>
makeFinegrainController()
{
    return makeController("fg-branch").make();
}

std::unique_ptr<ReconfigController>
makeSubroutineController()
{
    return makeController("fg-subroutine").make();
}

// --- Named sweep presets --------------------------------------------------

namespace {

/** A machine variant of one preset's grid. */
struct SweepVariant {
    std::string label;
    ProcessorConfig cfg;
    std::function<std::unique_ptr<ReconfigController>()> makeController;
    /**
     * Stable identity of makeController's output (RunPoint::
     * controllerKey). Every preset variant with a controller declares
     * one: it is what makes preset points content-addressable in the
     * serve-layer result cache (a factory without a key is opaque and
     * therefore never memoized). Distinct parameterizations must get
     * distinct keys.
     */
    std::string controllerKey;
};

/**
 * Build a variant whose controller comes from the policy registry: the
 * point's controllerKey is the registry handle's canonical key, so
 * every parameterization is content-addressable (warmup sharing, serve
 * cache) without hand-maintained key strings.
 */
SweepVariant
policyVariant(const std::string &label, ProcessorConfig cfg,
              const std::string &policy, const PolicyParams &params = {})
{
    ControllerHandle h = makeController(policy, params);
    return {label, std::move(cfg), std::move(h.make), std::move(h.key)};
}

/**
 * The seedTag of every comparison preset (fig5-8, sensitivity,
 * commcost, ablation): each benchmark's variants race one stream, as
 * the paper compares every organization on the same program, and a
 * point shared by two of these presets is the same point in both
 * (one cache entry, one checkpoint).
 */
constexpr const char *paperSeedTag = "paper";

/** Append one benchmark x variants cross to an existing point list. */
void
appendCross(std::vector<RunPoint> &points, const WorkloadSpec &w,
            const std::vector<SweepVariant> &variants,
            std::uint64_t warmup, std::uint64_t measure,
            const std::string &seed_tag)
{
    for (const SweepVariant &v : variants) {
        RunPoint p;
        p.label = v.label;
        p.cfg = v.cfg;
        p.workload = w;
        p.makeController = v.makeController;
        p.warmup = warmup;
        p.measure = measure;
        p.controllerKey = v.controllerKey;
        p.seedTag = seed_tag;
        points.push_back(std::move(p));
    }
}

/** Cross every benchmark with every variant, in row-major order. */
std::vector<RunPoint>
crossGrid(const std::vector<SweepVariant> &variants,
          std::uint64_t warmup, std::uint64_t measure,
          const std::string &seed_tag = "")
{
    std::vector<RunPoint> points;
    for (const WorkloadSpec &w : allBenchmarks())
        appendCross(points, w, variants, warmup, measure, seed_tag);
    return points;
}

std::vector<SweepVariant>
staticPlusExploreVariants(InterconnectKind kind, bool decentralized)
{
    return {
        {"static-4", staticSubsetConfig(4, kind, decentralized), nullptr,
         ""},
        {"static-16", staticSubsetConfig(16, kind, decentralized),
         nullptr, ""},
        policyVariant("ivl-explore",
                      clusteredConfig(16, kind, decentralized),
                      "ivl-explore"),
    };
}

} // namespace

const std::vector<std::string> &
sweepPresetNames()
{
    static const std::vector<std::string> names = {
        "table3", "fig3", "fig5", "fig6", "fig7", "fig8",
        "sensitivity", "commcost", "ablation", "smoke", "tournament",
    };
    return names;
}

std::vector<RunPoint>
makeSweepPreset(const std::string &name, std::uint64_t warmup,
                std::uint64_t measure)
{
    std::uint64_t warm = warmup ? warmup : defaultWarmup;
    auto run = [&](std::uint64_t preset_default) {
        return measure ? measure : preset_default;
    };

    if (name == "table3") {
        std::vector<SweepVariant> variants = {
            {"monolithic-16", monolithicConfig(16), nullptr, ""},
        };
        return crossGrid(variants, warm, run(1000000));
    }
    if (name == "fig3") {
        std::vector<SweepVariant> variants;
        for (int n : {2, 4, 8, 16})
            variants.push_back({"c" + std::to_string(n),
                                staticSubsetConfig(n), nullptr, ""});
        return crossGrid(variants, warm, run(1000000));
    }
    if (name == "fig5") {
        std::vector<SweepVariant> variants = {
            {"static-4", staticSubsetConfig(4), nullptr, ""},
            {"static-16", staticSubsetConfig(16), nullptr, ""},
            policyVariant("ivl-explore", clusteredConfig(16),
                          "ivl-explore"),
            policyVariant("ivl-ilp-1K", clusteredConfig(16), "ivl-ilp",
                          {{"interval", "1000"}}),
            policyVariant("ivl-ilp-10K", clusteredConfig(16), "ivl-ilp",
                          {{"interval", "10000"}}),
            policyVariant("ivl-ilp-100K", clusteredConfig(16), "ivl-ilp",
                          {{"interval", "100000"}}),
        };
        return crossGrid(variants, warm, run(2000000), paperSeedTag);
    }
    if (name == "fig6") {
        std::vector<SweepVariant> variants = {
            {"static-4", staticSubsetConfig(4), nullptr, ""},
            {"static-16", staticSubsetConfig(16), nullptr, ""},
            policyVariant("ivl-explore", clusteredConfig(16),
                          "ivl-explore"),
            policyVariant("fg-branch", clusteredConfig(16), "fg-branch"),
            policyVariant("fg-subroutine", clusteredConfig(16),
                          "fg-subroutine"),
        };
        return crossGrid(variants, warm, run(2000000), paperSeedTag);
    }
    if (name == "fig7") {
        std::vector<SweepVariant> variants =
            staticPlusExploreVariants(InterconnectKind::Ring, true);
        variants.push_back(policyVariant(
            "ivl-ilp-1K",
            clusteredConfig(16, InterconnectKind::Ring, true), "ivl-ilp",
            {{"interval", "1000"}}));
        variants.push_back(policyVariant(
            "ivl-ilp-10K",
            clusteredConfig(16, InterconnectKind::Ring, true), "ivl-ilp",
            {{"interval", "10000"}}));
        return crossGrid(variants, warm, run(2000000), paperSeedTag);
    }
    if (name == "fig8") {
        return crossGrid(
            staticPlusExploreVariants(InterconnectKind::Grid, false),
            warm, run(2000000), paperSeedTag);
    }
    if (name == "sensitivity") {
        struct SensCase {
            const char *label;
            ProcessorConfig (*make)();
        };
        const SensCase cases[] = {
            {"fewer-resources", &fewerResourcesConfig},
            {"more-resources", &moreResourcesConfig},
            {"more-fus", &moreFusConfig},
            {"slow-hops", &slowHopsConfig},
        };
        std::vector<RunPoint> points;
        for (const SensCase &sc : cases) {
            ProcessorConfig hw = sc.make();
            ProcessorConfig s4 = hw;
            s4.activeClustersAtReset = 4;
            ProcessorConfig s16 = hw;
            s16.activeClustersAtReset = 16;
            std::string tag(sc.label);
            std::vector<SweepVariant> variants = {
                {tag + "/static-4", s4, nullptr, ""},
                {tag + "/static-16", s16, nullptr, ""},
                policyVariant(tag + "/ivl-explore", hw, "ivl-explore"),
            };
            auto grid =
                crossGrid(variants, warm, run(1500000), paperSeedTag);
            points.insert(points.end(),
                          std::make_move_iterator(grid.begin()),
                          std::make_move_iterator(grid.end()));
        }
        return points;
    }
    if (name == "commcost") {
        // The in-text communication-cost studies: each idealization is
        // a copy of its base machine with one flag set.
        ProcessorConfig central = staticSubsetConfig(16);
        ProcessorConfig free_ldst = central;
        free_ldst.freeMemComm = true;
        ProcessorConfig free_reg = central;
        free_reg.freeRegComm = true;
        ProcessorConfig dcache =
            staticSubsetConfig(16, InterconnectKind::Ring, true);
        ProcessorConfig perfect_bank = dcache;
        perfect_bank.perfectBankPred = true;
        ProcessorConfig dcache_free_reg = dcache;
        dcache_free_reg.freeRegComm = true;
        std::vector<SweepVariant> variants = {
            {"central/base", central, nullptr, ""},
            {"central/free-ldst", free_ldst, nullptr, ""},
            {"central/free-reg", free_reg, nullptr, ""},
            {"dcache/base", dcache, nullptr, ""},
            {"dcache/perfect-bank", perfect_bank, nullptr, ""},
            {"dcache/free-reg", dcache_free_reg, nullptr, ""},
        };
        return crossGrid(variants, warm, run(1000000), paperSeedTag);
    }
    if (name == "ablation") {
        // Design-choice ablations; each group's reference comes first.
        // Steering: load balance never overrides operand affinity, or
        // always picks the least-loaded cluster (close to Mod_N).
        ProcessorConfig full = staticSubsetConfig(16);
        ProcessorConfig no_balance = full;
        no_balance.loadBalanceThreshold = 1 << 20;
        ProcessorConfig pure_balance = full;
        pure_balance.loadBalanceThreshold = 0;
        std::vector<SweepVariant> variants = {
            {"steer/full", full, nullptr, ""},
            {"steer/no-load-balance", no_balance, nullptr, ""},
            {"steer/pure-load-balance", pure_balance, nullptr, ""},
        };
        for (const char *t : {"300", "160", "500"})
            variants.push_back(policyVariant(
                std::string("ilp-threshold/") + t, clusteredConfig(16),
                "ivl-ilp", {{"distant-per-mille", t}}));
        for (const char *s : {"5", "1", "20"})
            variants.push_back(policyVariant(
                std::string("fg-stride/") + s, clusteredConfig(16),
                "fg-branch", {{"stride", s}}));
        return crossGrid(variants, warm, run(800000), paperSeedTag);
    }
    if (name == "smoke") {
        std::vector<SweepVariant> variants = {
            {"static-16", staticSubsetConfig(16), nullptr, ""},
            policyVariant("ivl-explore", clusteredConfig(16),
                          "ivl-explore"),
        };
        return crossGrid(variants, warmup ? warmup : 30000,
                         run(120000));
    }
    if (name == "tournament") {
        // Race every dynamic policy on the same 16-cluster machine,
        // per benchmark. Every point of one benchmark carries the same
        // seedTag, so the planner gives all six policies the *same*
        // instruction stream: the ranked table compares them
        // head-to-head, and the oracle -- seeded with the very same
        // tag-derived seed -- bounds the reactive field on the stream
        // it is scored on. The reactive points are the oracle's own
        // candidates (reactiveCompetitors()), so runSweep hands it
        // their measured runs. Its remaining probes run when its
        // controller is built, not here (building the grid, e.g. for
        // `sweep --list`, must stay cheap).
        registerOraclePolicy();
        std::uint64_t meas = run(1000000);
        std::vector<RunPoint> points;
        for (const WorkloadSpec &w : allBenchmarks()) {
            std::vector<SweepVariant> variants;
            for (const ReactiveCompetitor &c : reactiveCompetitors())
                variants.push_back(policyVariant(
                    c.label, clusteredConfig(16), c.policy, c.params));
            variants.push_back(policyVariant(
                "oracle", clusteredConfig(16), "oracle",
                {{"bench", w.name},
                 {"seed", std::to_string(
                              sweepSeed(w.seed, w.name, "tournament"))},
                 {"horizon", std::to_string(warm + meas)},
                 {"warmup", std::to_string(warm)},
                 {"interval", "1000"}}));
            appendCross(points, w, variants, warm, meas, "tournament");
        }
        return points;
    }
    CSIM_ASSERT(false, "unknown sweep preset: ", name);
    return {};
}

} // namespace clustersim
