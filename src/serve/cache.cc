#include "serve/cache.hh"

#include "sim/plan.hh"

namespace clustersim {
namespace serve {

CacheStore::CacheStore(std::string dir, std::string salt)
    : ContentStore(std::move(dir), std::move(salt),
                   "clustersim-point-cache-v1", ".cpt")
{}

std::string
CacheStore::keyFor(const RunPoint &p, const std::string &label,
                   std::uint64_t seed) const
{
    return address(pointIdentityKey(p, label, seed));
}

} // namespace serve
} // namespace clustersim
