/**
 * @file
 * Set-associative cache tag/data array with LRU replacement and
 * write-back/write-allocate policy. Timing lives in the callers (L1/L2
 * wrappers); this class models hit/miss/writeback behaviour.
 */

#ifndef CLUSTERSIM_MEMORY_CACHE_BANK_HH
#define CLUSTERSIM_MEMORY_CACHE_BANK_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace clustersim {

/** Outcome of a cache array access. */
struct CacheAccessResult {
    bool hit = false;
    bool writeback = false; ///< a dirty victim was evicted
    Addr victimAddr = 0;    ///< line address of the dirty victim
};

/** One set-associative cache array. */
class CacheBank
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param ways       Associativity.
     * @param line_bytes Line size (the decentralized L1 uses 8).
     */
    CacheBank(std::size_t size_bytes, int ways, int line_bytes);

    /** Access (and allocate on miss). */
    CacheAccessResult access(Addr addr, bool write);

    /** Probe without modifying state. */
    bool probe(Addr addr) const;

    /**
     * Invalidate everything; appends the line addresses of dirty lines
     * to dirty_lines (used for the reconfiguration cache flush).
     */
    void flush(std::vector<Addr> &dirty_lines);

    std::size_t numSets() const { return sets_; }
    int ways() const { return ways_; }
    int lineBytes() const { return lineBytes_; }

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    double
    missRate() const
    {
        return accesses() ? static_cast<double>(misses()) /
                                static_cast<double>(accesses())
                          : 0.0;
    }

    void resetStats();

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(lines_.size());
        for (Line &l : lines_)
            l.fields(v);
        v.u64(useClock_);
        v.u64(lastIdx_, lines_.empty() ? 0 : lines_.size() - 1);
        accesses_.fields(v);
        misses_.fields(v);
        writebacks_.fields(v);
    }

  private:
    struct Line {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;

        template <class V>
        void
        fields(V &v)
        {
            v.boolean(valid);
            v.boolean(dirty);
            v.u64(tag);
            v.u64(lastUse);
        }
    };

    std::size_t setIndex(Addr addr) const;
    Addr lineAddr(Addr addr) const;

    std::size_t sets_; // simlint-ignore(F001): geometry, from the config
    int ways_;         // simlint-ignore(F001): geometry, from the config
    int lineBytes_;    // simlint-ignore(F001): geometry, from the config
    int lineShift_;    // simlint-ignore(F001): geometry, from the config
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    /**
     * Slot of the most recently touched line: a pure lookup hint for
     * the same-line fast path in access(). Always a valid index (the
     * tag check rejects stale hints), and index-based so value copies
     * of the bank — snapshots restore them wholesale — stay correct.
     */
    std::size_t lastIdx_ = 0;

    Counter accesses_;
    Counter misses_;
    Counter writebacks_;
};

} // namespace clustersim

#endif // CLUSTERSIM_MEMORY_CACHE_BANK_HH
