#include "reconfig/registry.hh"

#include <algorithm>
#include <charconv>
#include <set>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/thread_annotations.hh"
#include "core/params.hh"
#include "reconfig/finegrain.hh"
#include "reconfig/ineffectuality.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/interval_ilp.hh"

namespace clustersim {

namespace {

// --- parameter parsing ------------------------------------------------------

/** Reject parameter names the policy does not define: a misspelled
 *  tunable silently falling back to its default would corrupt the
 *  canonical key's "every parameter spelled out" contract. */
void
checkKnown(const std::string &policy, const PolicyParams &params,
           const std::set<std::string> &known)
{
    for (const auto &kv : params)
        if (!known.count(kv.first))
            fatal("policy '", policy, "': unknown parameter '", kv.first,
                  "'");
}

/** Parameter `key` through parseNumber(), or `def` when it is absent. */
template <class T>
T
param(const PolicyParams &params, const std::string &key, T def,
      T max = std::numeric_limits<T>::max())
{
    auto it = params.find(key);
    if (it == params.end())
        return def;
    std::optional<T> v = parseNumber<T>(it->second, max);
    if (!v)
        fatal("parameter '", key, "': invalid value '", it->second, "'");
    return *v;
}

std::uint64_t
paramU64(const PolicyParams &params, const std::string &key,
         std::uint64_t def)
{
    return param(params, key, def);
}

int
paramInt(const PolicyParams &params, const std::string &key, int def)
{
    return param(params, key, def, 1000000);
}

double
paramF64(const PolicyParams &params, const std::string &key, double def)
{
    return param(params, key, def);
}

/** Canonical `policy{k=v;...}` key; pairs must be pre-sorted. */
std::string
canonicalKey(const std::string &policy,
             const std::vector<std::pair<std::string, std::string>> &kv)
{
    std::string key = policy + "{";
    for (std::size_t i = 0; i < kv.size(); i++) {
        if (i)
            key += ";";
        key += kv[i].first + "=" + kv[i].second;
    }
    return key + "}";
}

// --- built-in policies ------------------------------------------------------

ControllerHandle
buildStatic(const PolicyParams &params)
{
    checkKnown("static", params, {"active"});
    int active = paramInt(params, "active", 16);
    CSIM_ASSERT(active >= 1 && active <= maxClusters);
    return {canonicalKey("static",
                         {{"active", std::to_string(active)}}),
            [active] {
                return std::make_unique<StaticController>(active);
            }};
}

ControllerHandle
buildIvlExplore(const PolicyParams &params)
{
    checkKnown("ivl-explore", params, {"interval", "max-interval"});
    IntervalExploreParams p;
    p.initialInterval = paramU64(params, "interval", 10000);
    // Paper: 1B; scaled with this repo's shortened run lengths.
    p.maxInterval = paramU64(params, "max-interval", 10000000);
    return {canonicalKey(
                "ivl-explore",
                {{"interval", std::to_string(p.initialInterval)},
                 {"max-interval", std::to_string(p.maxInterval)}}),
            [p] {
                return std::make_unique<IntervalExploreController>(p);
            }};
}

ControllerHandle
buildIvlIlp(const PolicyParams &params)
{
    checkKnown("ivl-ilp", params, {"interval", "distant-per-mille"});
    IntervalIlpParams p;
    p.intervalLength = paramU64(params, "interval", 1000);
    p.distantPerMille = paramF64(params, "distant-per-mille", 300.0);
    return {canonicalKey(
                "ivl-ilp",
                {{"distant-per-mille", canonicalNumber(p.distantPerMille)},
                 {"interval", std::to_string(p.intervalLength)}}),
            [p] { return std::make_unique<IntervalIlpController>(p); }};
}

ControllerHandle
buildFgBranch(const PolicyParams &params)
{
    checkKnown("fg-branch", params, {"stride", "samples"});
    FinegrainParams p;
    p.branchStride = paramInt(params, "stride", 5);
    p.samplesNeeded = paramInt(params, "samples", 10);
    return {canonicalKey("fg-branch",
                         {{"samples", std::to_string(p.samplesNeeded)},
                          {"stride", std::to_string(p.branchStride)}}),
            [p] { return std::make_unique<FinegrainController>(p); }};
}

ControllerHandle
buildFgSubroutine(const PolicyParams &params)
{
    checkKnown("fg-subroutine", params, {"samples"});
    FinegrainParams p;
    p.subroutineMode = true;
    p.samplesNeeded = paramInt(params, "samples", 3);
    return {canonicalKey("fg-subroutine",
                         {{"samples", std::to_string(p.samplesNeeded)}}),
            [p] { return std::make_unique<FinegrainController>(p); }};
}

ControllerHandle
buildIneffectuality(const PolicyParams &params)
{
    checkKnown("ineffectuality", params,
               {"interval", "waste", "gate", "ungate"});
    IneffectualityParams p;
    p.intervalLength = paramU64(params, "interval", 10000);
    p.wastePerMispredict = paramF64(params, "waste", 80.0);
    p.gateThreshold = paramF64(params, "gate", 0.30);
    p.ungateThreshold = paramF64(params, "ungate", 0.15);
    return {canonicalKey(
                "ineffectuality",
                {{"gate", canonicalNumber(p.gateThreshold)},
                 {"interval", std::to_string(p.intervalLength)},
                 {"ungate", canonicalNumber(p.ungateThreshold)},
                 {"waste", canonicalNumber(p.wastePerMispredict)}}),
            [p] {
                return std::make_unique<IneffectualityController>(p);
            }};
}

using PolicyBuilder =
    std::function<ControllerHandle(const PolicyParams &)>;

struct BuiltinPolicy {
    const char *name;
    ControllerHandle (*build)(const PolicyParams &);
};

constexpr BuiltinPolicy builtinPolicies[] = {
    {"fg-branch", &buildFgBranch},
    {"fg-subroutine", &buildFgSubroutine},
    {"ineffectuality", &buildIneffectuality},
    {"ivl-explore", &buildIvlExplore},
    {"ivl-ilp", &buildIvlIlp},
    {"static", &buildStatic},
};

/** Runtime-registered policies (e.g. the offline oracle in sim/). */
struct ExtensionRegistry {
    mutable Mutex mutex;
    std::map<std::string, PolicyBuilder> policies
        CSIM_GUARDED_BY(mutex);
};

ExtensionRegistry &
extensions()
{
    static ExtensionRegistry r;
    return r;
}

} // namespace

std::string
canonicalNumber(double v)
{
    char buf[32];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    CSIM_ASSERT(ec == std::errc(), "unprintable number");
    return std::string(buf, end);
}

ControllerHandle
makeController(const std::string &policy, const PolicyParams &params)
{
    for (const BuiltinPolicy &b : builtinPolicies)
        if (policy == b.name)
            return b.build(params);
    PolicyBuilder build;
    {
        ExtensionRegistry &r = extensions();
        MutexLock lock(r.mutex);
        auto it = r.policies.find(policy);
        if (it != r.policies.end())
            build = it->second;
    }
    if (!build)
        fatal("unknown controller policy: ", policy);
    ControllerHandle h = build(params);
    CSIM_ASSERT(!h.key.empty() && h.make != nullptr,
                "policy '", policy, "' built a defective handle");
    return h;
}

std::vector<std::string>
controllerPolicies()
{
    std::vector<std::string> names;
    for (const BuiltinPolicy &b : builtinPolicies)
        names.push_back(b.name);
    {
        ExtensionRegistry &r = extensions();
        MutexLock lock(r.mutex);
        for (const auto &kv : r.policies)
            names.push_back(kv.first);
    }
    std::sort(names.begin(), names.end());
    return names;
}

bool
isControllerPolicy(const std::string &name)
{
    for (const BuiltinPolicy &b : builtinPolicies)
        if (name == b.name)
            return true;
    ExtensionRegistry &r = extensions();
    MutexLock lock(r.mutex);
    return r.policies.count(name) != 0;
}

void
registerControllerPolicy(const std::string &name, PolicyBuilder build)
{
    CSIM_ASSERT(build != nullptr);
    for (const BuiltinPolicy &b : builtinPolicies)
        CSIM_ASSERT(name != b.name,
                    "cannot replace built-in policy: ", name);
    ExtensionRegistry &r = extensions();
    MutexLock lock(r.mutex);
    r.policies[name] = std::move(build);
}

} // namespace clustersim
