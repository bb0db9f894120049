/**
 * @file
 * Persistent content-addressed result cache for finished sweep points.
 *
 * Determinism (simlint D-rules + the golden harness) makes a finished
 * point immutable: the payload stored under hash(config + workload +
 * seed + warmup/measure + controller identity + version salt) can never
 * legitimately change, so a hit replays byte-identical report bytes and
 * repeated figure regenerations become near-free.
 *
 * Storage, integrity checks and counters are the shared ContentStore's
 * (common/content_store.hh); entries are `<dir>/<64-hex-sha256>.cpt`.
 */

#ifndef CLUSTERSIM_SERVE_CACHE_HH
#define CLUSTERSIM_SERVE_CACHE_HH

#include <cstdint>
#include <string>

#include "common/content_store.hh"
#include "sim/sweep.hh"

namespace clustersim {
namespace serve {

/**
 * Cache version salt: folded into every content address. Bump the
 * trailing tag in any PR that changes simulated outcomes (the golden
 * harness failing is the cue); every stale entry then misses by
 * construction instead of replaying outdated results.
 */
inline constexpr const char *defaultCacheSalt = "clustersim-results-v6";

using CacheStats = StoreStats;

/** The content store keyed on point identity: one report payload per
 *  finished point. */
class CacheStore : public ContentStore
{
  public:
    /**
     * @param dir  Cache directory, created if missing. Empty disables
     *             the store (every load misses, stores are dropped).
     * @param salt Version salt folded into keyFor().
     */
    CacheStore(std::string dir, std::string salt = defaultCacheSalt);

    /**
     * Content address of one planned point, or "" when the point's
     * identity is not fully declared (pointCacheable() false).
     */
    std::string keyFor(const RunPoint &p, const std::string &label,
                       std::uint64_t seed) const;
};

} // namespace serve
} // namespace clustersim

#endif // CLUSTERSIM_SERVE_CACHE_HH
