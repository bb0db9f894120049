/**
 * @file
 * Canonical sweep planning: the single source of truth for how a list
 * of RunPoints maps to per-point identities (label, derived seed).
 *
 * Two consumers share this module so they can never drift apart:
 *
 *  - runSweep() derives each point's label and seed from planPoints();
 *  - the sweep server (src/serve/) keys its content-addressed result
 *    cache on pointIdentityKey(), and the warmup-checkpoint store keys
 *    on warmupIdentityKey(), so a cache-replayed report carries exactly
 *    the entries the CLI engine would have produced.
 *
 * The byte-key serializers enumerate every field that influences a
 * simulated outcome, in declaration order, with separators (doubles as
 * bit patterns: identity wants exactness, not numeric closeness). A
 * field missed here could silently alias two distinct cache entries --
 * keep them exhaustive.
 */

#ifndef CLUSTERSIM_SIM_PLAN_HH
#define CLUSTERSIM_SIM_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace clustersim {

/** Canonical identity of one sweep point, after planning. */
struct PlannedPoint {
    std::size_t index = 0;   ///< submission index
    std::string label;       ///< p.label, defaulted to p.cfg.name
    std::uint64_t seed = 0;  ///< workload seed actually used
};

/**
 * Per-point planning exactly as every execution path applies it:
 * label defaults to the config name; with derive_seeds the workload
 * seed is replaced by sweepSeed(seed, benchmark, label), where a
 * non-empty RunPoint::seedTag stands in for the label (points sharing
 * a tag share a stream).
 */
std::vector<PlannedPoint> planPoints(const std::vector<RunPoint> &points,
                                     bool derive_seeds);

/** A sweep's planned points, in submission order. */
struct SweepPlan {
    std::vector<PlannedPoint> points;
};

/** planPoints() wrapped in a SweepPlan, for callers that take the plan
 *  whole. */
SweepPlan planSweep(const std::vector<RunPoint> &points,
                    bool derive_seeds);

/** Exhaustive byte-key of a processor configuration. */
void appendConfigKey(std::string &k, const ProcessorConfig &c);

/** Exhaustive byte-key of a workload spec, including its seed. */
void appendWorkloadKey(std::string &k, const WorkloadSpec &w);

/**
 * Whether a point's simulated outcome is fully captured by its declared
 * identity. False only for points with a controller factory but an
 * empty controllerKey: std::function is opaque, so such points can
 * neither be checkpointed nor result-cached (always correct, just
 * never memoized).
 */
bool pointCacheable(const RunPoint &p);

/**
 * Full identity byte string of one planned point: config + workload
 * (with the derived seed) + warmup + measure + label + controller
 * identity. Two points with equal keys produce byte-identical report
 * entries; the serve-layer cache hashes this (plus a version salt)
 * into its content address. Empty when !pointCacheable(p).
 */
std::string pointIdentityKey(const RunPoint &p, const std::string &label,
                             std::uint64_t seed);

/**
 * Identity byte string of a point's *warmup* only: config + workload
 * (with the derived seed) + warmup instruction count + controller
 * identity. Deliberately excludes measure and label -- any two points
 * with equal keys reach bit-identical post-warmup machine state, so a
 * persisted checkpoint under this key serves them all. Empty when the
 * point is not cacheable (opaque controller) or has no warmup.
 */
std::string warmupIdentityKey(const RunPoint &p, std::uint64_t seed);

} // namespace clustersim

#endif // CLUSTERSIM_SIM_PLAN_HH
