/**
 * @file
 * Translation lookaside buffer: 128 entries, 8 KB pages (Table 1).
 */

#ifndef CLUSTERSIM_MEMORY_TLB_HH
#define CLUSTERSIM_MEMORY_TLB_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace clustersim {

/** Set-associative TLB with LRU replacement and a fixed miss penalty. */
class Tlb
{
  public:
    /**
     * @param entries      Total entries (128 in the paper).
     * @param ways         Associativity.
     * @param page_bytes   Page size (8 KB in the paper).
     * @param miss_penalty Cycles added on a miss (software walk).
     */
    Tlb(std::size_t entries = 128, int ways = 4,
        std::size_t page_bytes = 8192, Cycle miss_penalty = 30);

    /**
     * Translate; returns the extra latency (0 on hit, missPenalty on
     * miss) and installs the mapping.
     */
    Cycle translate(Addr addr);

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    Cycle missPenalty() const { return missPenalty_; }
    void resetStats();

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(entries_.size());
        for (Entry &e : entries_)
            e.fields(v);
        v.u64(useClock_);
        v.u64(lastIdx_, entries_.empty() ? 0 : entries_.size() - 1);
        accesses_.fields(v);
        misses_.fields(v);
    }

  private:
    struct Entry {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lastUse = 0;

        template <class V>
        void
        fields(V &v)
        {
            v.boolean(valid);
            v.u64(vpn);
            v.u64(lastUse);
        }
    };

    std::size_t sets_;   // simlint-ignore(F001): geometry, from the config
    int ways_;           // simlint-ignore(F001): geometry, from the config
    int pageShift_;      // simlint-ignore(F001): geometry, from the config
    Cycle missPenalty_;  // simlint-ignore(F001): timing, from the config
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    /**
     * Slot of the most recently used entry: a lookup hint for the
     * same-page fast path in translate(). The vpn check rejects stale
     * hints, and the index survives value copies (snapshot restore).
     */
    std::size_t lastIdx_ = 0;

    Counter accesses_;
    Counter misses_;
};

} // namespace clustersim

#endif // CLUSTERSIM_MEMORY_TLB_HH
