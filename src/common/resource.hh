/**
 * @file
 * Cycle-slot reservation helper used to model single-issue ports (cache
 * banks, L2 pipelines, non-pipelined functional units).
 */

#ifndef CLUSTERSIM_COMMON_RESOURCE_HH
#define CLUSTERSIM_COMMON_RESOURCE_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

// simlint: hot-path

namespace clustersim {

/**
 * Reserves one slot per cycle within a sliding window. A slot holds the
 * cycle number that owns it; stale values (from lapped windows) read as
 * free. Requests later than the window ahead of previous reservations
 * are always satisfiable, which keeps this allocation-free and O(wait).
 */
class SlotReserver
{
  public:
    /**
     * The window must be a power of two: slot lookup runs on every
     * reservation probe, and a mask beats an integer division there.
     */
    explicit SlotReserver(std::size_t window = 1024)
        : slots_(window, neverCycle), mask_(window - 1)
    {
        CSIM_ASSERT(window > 0 && (window & (window - 1)) == 0,
                    "SlotReserver window must be a power of two");
    }

    /** Reserve the first free cycle at or after want; returns it. */
    Cycle
    reserve(Cycle want)
    {
        Cycle t = want;
        for (;;) {
            Cycle &slot = slots_[t & mask_];
            if (slot != t) {
                slot = t;
                return t;
            }
            t++;
        }
    }

    /** First free cycle at or after want, without reserving it. */
    Cycle
    firstFree(Cycle want) const
    {
        Cycle t = want;
        while (slots_[t & mask_] == t)
            t++;
        return t;
    }

    /**
     * Start of the first free len-cycle span at or after want, without
     * reserving it. Same fit rule as reserveSpan.
     */
    Cycle
    firstFreeSpan(Cycle want, Cycle len) const
    {
        checkSpanFits(len);
        Cycle start = want;
        for (;;) {
            bool ok = true;
            for (Cycle i = 0; i < len; i++) {
                if (slots_[(start + i) & mask_] == start + i) {
                    start = start + i + 1;
                    ok = false;
                    break;
                }
            }
            if (ok)
                return start;
        }
    }

    /**
     * Reserve a busy period of len consecutive cycles starting at or
     * after want (for non-pipelined units). Returns the start cycle.
     */
    Cycle
    reserveSpan(Cycle want, Cycle len)
    {
        checkSpanFits(len);
        Cycle start = want;
        for (;;) {
            bool ok = true;
            for (Cycle i = 0; i < len; i++) {
                if (slots_[(start + i) & mask_] == start + i) {
                    start = start + i + 1;
                    ok = false;
                    break;
                }
            }
            if (ok)
                break;
        }
        for (Cycle i = 0; i < len; i++)
            slots_[(start + i) & mask_] = start + i;
        return start;
    }

    std::size_t window() const { return slots_.size(); }

    // simlint: cold-begin -- checkpoint serialization (see
    // core/snapshot_io.hh); never runs on the simulated path
    /** The window is construction-time shape: sizes must agree. */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(slots_.size());
        for (Cycle &c : slots_)
            v.u64(c);
    }
    // simlint: cold-end

  private:
    /**
     * A span longer than the window can never fit: its cycles alias the
     * same slots modulo the window size, so the search would loop
     * forever. A span of exactly the window size is fine (N consecutive
     * cycles are distinct mod N). Growing the window instead is unsound
     * — live and stale entries become indistinguishable under the new
     * modulus — so reject the request.
     */
    void
    checkSpanFits(Cycle len) const
    {
        if (len > static_cast<Cycle>(slots_.size())) {
            fatal("SlotReserver: span of ", len,
                  " cycles cannot fit a window of ", slots_.size());
        }
    }

    std::vector<Cycle> slots_;
    std::size_t mask_; // simlint-ignore(F001): window shape, not state
};

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_RESOURCE_HH
