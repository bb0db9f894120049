/**
 * @file
 * Persistent warmup-checkpoint store: serialized post-warmup
 * Processor::Snapshot blobs reused across sweeps and the sweep daemon.
 *
 * A point's warmup is a pure function of its warmup identity (workload
 * stream + config + warmup count + controller identity -- see
 * warmupIdentityKey() in sim/plan.hh), so the machine state it produces
 * is immutable and can be persisted: a later run with the same identity
 * restores the snapshot instead of re-simulating the warmup, which is
 * the bulk of wall time for warmup-heavy sweeps. Restore is bit-exact
 * by the Processor::Snapshot contract, so warm-started reports are
 * byte-identical to cold ones.
 *
 * A checkpoint holds the core's state and, for a generator-fed
 * processor, the generator's state at the snapshot's trace position
 * (the sweep's points are all generator-fed), so a warm start resumes
 * the stream instead of regenerating the warmup. A payload taken from
 * a processor fed by a ReplaySource carries no generator state; each
 * kind loads only into a processor fed by the same kind of source.
 *
 * Storage, integrity checks, counters and the in-flight compute lease
 * are the shared ContentStore's (common/content_store.hh); entries are
 * `<dir>/<64-hex-sha256>.ckp`. A payload that passes the store's hash
 * but fails deserializeSnapshot() -- a stale snapshotFormatVersion,
 * the other source kind -- counts as a corrupt miss and is recomputed
 * too: never a wrong report.
 */

#ifndef CLUSTERSIM_SIM_CHECKPOINT_HH
#define CLUSTERSIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "common/content_store.hh"
#include "core/processor.hh"
#include "sim/sweep.hh"

namespace clustersim {

/**
 * Checkpoint version salt, folded into every content address. Bump the
 * trailing tag in any PR that changes simulated outcomes or the
 * snapshot layout; stale blobs then miss by construction. (The payload
 * additionally self-identifies via snapshotFormatVersion, so either
 * lever alone is sufficient -- the salt invalidates without reading
 * files, the version rejects blobs that slip through.) v3 goes with
 * snapshot format 3, the delta-coded stream.
 */
inline constexpr const char *defaultCheckpointSalt =
    "clustersim-warmup-v3";

using CheckpointStats = StoreStats;

/** Serialize a snapshot into the versioned checkpoint payload. */
std::string serializeSnapshot(const Processor::Snapshot &s);

/**
 * Deserialize a checkpoint payload into `donor`, a snapshot captured
 * from a processor built with the same configuration (shapes are
 * verified, dynamic state replaced). False -- donor unusable -- on any
 * malformed, truncated, or version-mismatched payload.
 */
bool deserializeSnapshot(const std::string &payload,
                         Processor::Snapshot &donor);

/** The content store keyed on warmup identity: one snapshot blob per
 *  warmup. */
class WarmupCheckpointStore : public ContentStore
{
  public:
    /**
     * @param dir  Store directory, created if missing. Empty disables
     *             the store (every load misses, stores are dropped).
     * @param salt Version salt folded into keyFor().
     */
    explicit WarmupCheckpointStore(
        std::string dir, std::string salt = defaultCheckpointSalt);

    /**
     * Content address of one point's warmup, or "" when the warmup has
     * no declared identity (opaque controller, or warmup == 0).
     */
    std::string keyFor(const RunPoint &p, std::uint64_t seed) const;
};

} // namespace clustersim

#endif // CLUSTERSIM_SIM_CHECKPOINT_HH
