/**
 * @file
 * Persistent content-addressed store: one self-verifying payload file
 * per key. The serve-layer result cache (serve/cache.hh) and the
 * warmup-checkpoint store (sim/checkpoint.hh) are thin wrappers that
 * supply only their identity bytes, magic string and file suffix.
 *
 * A key is the hex sha256 of (magic, version salt, identity). Each entry
 * lives at `<dir>/<64-hex-key><suffix>` as a one-line header ahead of
 * the payload,
 *
 *     <magic> <key> <payload-bytes> <payload-sha256>\n<payload>\n
 *
 * written to a temp name and atomically renamed, so readers only ever
 * see complete files. Any mismatch -- truncation, bit rot, a mis-filed
 * entry, another store's magic -- is counted as corrupt and served as a
 * miss, so callers recompute instead of using wrong bytes. The salt is
 * the whole-store invalidation lever: a new salt moves every address.
 *
 * In-flight dedup: threads that miss the same key compute it once
 * through loadOrLease() -- the first claims an exclusive compute lease,
 * the rest wait for it and then find its stored payload.
 */

#ifndef CLUSTERSIM_COMMON_CONTENT_STORE_HH
#define CLUSTERSIM_COMMON_CONTENT_STORE_HH

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/thread_annotations.hh"

namespace clustersim {

/** Monotonic counters; snapshot via ContentStore::stats(). */
struct StoreStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeFailures = 0;
    std::uint64_t corrupt = 0;
};

/** Thread-safe persistent store: one payload per content address. */
class ContentStore
{
  public:
    /**
     * @param dir    Store directory, created if missing. Empty disables
     *               the store (every load misses, stores are dropped).
     * @param salt   Version salt folded into address().
     * @param magic  Format tag: leads every header, seeds every address.
     * @param suffix Entry file-name suffix.
     */
    ContentStore(std::string dir, std::string salt, const char *magic,
                 const char *suffix);

    bool enabled() const { return !dir_.empty(); }
    const std::string &salt() const { return salt_; }
    const std::string &dir() const { return dir_; }

    /** Whether an entry file exists for key. Content is not verified
     *  and no counter moves -- a cheap probe, not a load. */
    bool contains(const std::string &key) const;

    /** Payload stored under key; nullopt on miss or corruption. */
    std::optional<std::string> load(const std::string &key)
        CSIM_EXCLUDES(mutex_);

    /** Persist payload under key (atomic rename; last writer wins --
     *  every writer of one key writes the same bytes). */
    void store(const std::string &key, const std::string &payload)
        CSIM_EXCLUDES(mutex_);

    /**
     * Exclusive in-process compute lease over one key. Move-only;
     * releases (and wakes waiters) on destruction.
     */
    class ComputeLease
    {
      public:
        ComputeLease() = default;
        ComputeLease(ComputeLease &&o) noexcept
            : store_(std::exchange(o.store_, nullptr)),
              key_(std::move(o.key_))
        {}
        ComputeLease &
        operator=(ComputeLease &&o) noexcept
        {
            if (this != &o) {
                release();
                store_ = std::exchange(o.store_, nullptr);
                key_ = std::move(o.key_);
            }
            return *this;
        }
        ComputeLease(const ComputeLease &) = delete;
        ComputeLease &operator=(const ComputeLease &) = delete;
        ~ComputeLease() { release(); }

      private:
        friend class ContentStore;
        ComputeLease(ContentStore *store, std::string key)
            : store_(store), key_(std::move(key))
        {}
        void release();

        ContentStore *store_ = nullptr;
        std::string key_;
    };

    /** Block until no other thread holds key's lease, then claim it.
     *  An empty key returns an inert lease. */
    ComputeLease beginCompute(const std::string &key)
        CSIM_EXCLUDES(inflightMutex_);

    /**
     * load() with in-flight dedup: on a miss, claim key's lease (waiting
     * out any holder) and look again, since the holder may have stored
     * meanwhile. On nullopt the caller holds the lease and should
     * compute and store() before dropping it. Counts one hit or one miss
     * per call, however many reads it took.
     */
    std::optional<std::string> loadOrLease(const std::string &key,
                                           ComputeLease &lease)
        CSIM_EXCLUDES(mutex_, inflightMutex_);

    StoreStats stats() const CSIM_EXCLUDES(mutex_);

    /** Entry count and file bytes currently on disk (directory scan;
     *  for stats frames, not hot paths). */
    void diskUsage(std::uint64_t &entries, std::uint64_t &bytes) const;

  protected:
    /** Content address of an identity byte string; "" for an empty
     *  identity (a point whose outcome is not fully declared). The
     *  wrappers' keyFor() supplies the identity. */
    std::string address(const std::string &identity) const;

  private:
    std::string pathFor(const std::string &key) const;
    /** Verified payload of key's file; sets corrupt on a bad file. */
    std::optional<std::string> read(const std::string &key,
                                    bool &corrupt) const;
    void count(bool hit, bool corrupt) CSIM_EXCLUDES(mutex_);
    void endCompute(const std::string &key) CSIM_EXCLUDES(inflightMutex_);

    // simlint-ignore(C001): immutable after construction
    std::string dir_;
    // simlint-ignore(C001): immutable after construction
    std::string salt_;
    // simlint-ignore(C001): immutable after construction
    const char *magic_;
    // simlint-ignore(C001): immutable after construction
    const char *suffix_;
    mutable Mutex mutex_;
    StoreStats stats_ CSIM_GUARDED_BY(mutex_);
    std::uint64_t tmpCounter_ CSIM_GUARDED_BY(mutex_) = 0;

    /** Lease claims never nest inside the stats lock; rank the lease
     *  lock above it so the discipline is declared, not tribal. */
    Mutex inflightMutex_ CSIM_ACQUIRED_BEFORE(mutex_);
    ConditionVariable inflightCv_;
    std::set<std::string> inflight_ CSIM_GUARDED_BY(inflightMutex_);
};

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_CONTENT_STORE_HH
