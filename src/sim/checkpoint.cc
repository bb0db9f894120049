#include "sim/checkpoint.hh"

#include "core/snapshot_io.hh"
#include "sim/plan.hh"

namespace clustersim {

std::string
serializeSnapshot(const Processor::Snapshot &s)
{
    FieldWriter w;
    w.write(s);
    return w.take();
}

bool
deserializeSnapshot(const std::string &payload,
                    Processor::Snapshot &donor)
{
    FieldReader r(payload);
    donor.fields(r);
    return r.atEnd();
}

WarmupCheckpointStore::WarmupCheckpointStore(std::string dir,
                                             std::string salt)
    : ContentStore(std::move(dir), std::move(salt),
                   "clustersim-warmup-checkpoint-v1", ".ckp")
{}

std::string
WarmupCheckpointStore::keyFor(const RunPoint &p,
                              std::uint64_t seed) const
{
    return address(warmupIdentityKey(p, seed));
}

} // namespace clustersim
