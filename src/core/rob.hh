/**
 * @file
 * Reorder buffer: a contiguous-sequence window of DynInsts.
 */

#ifndef CLUSTERSIM_CORE_ROB_HH
#define CLUSTERSIM_CORE_ROB_HH

#include <vector>

#include "core/dyn_inst.hh"

namespace clustersim {

/**
 * The ROB. Sequence numbers are assigned densely at dispatch, so lookup
 * is an offset from the head. The simulator is trace-driven with
 * fetch-gated mispredictions, so entries never squash; they enter at
 * dispatch and leave at commit.
 *
 * Storage is a fixed-capacity ring of DynInst slots allocated once at
 * construction: allocate/retire move indices and reset the recycled
 * slot in place, so the steady state performs no heap allocation (a
 * slot's spilled waiter list keeps its capacity across reuse). Entry
 * addresses are stable for an instruction's whole lifetime.
 */
class ReorderBuffer
{
  public:
    explicit ReorderBuffer(int capacity);

    bool full() const { return static_cast<int>(size_) >= cap_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    int capacity() const { return cap_; }

    /** Allocate the next entry; returns its assigned sequence number. */
    DynInst &allocate(const MicroOp &op);

    // Per-operand lookups run millions of times per simulated second;
    // keep them inline.

    /** Oldest in-flight instruction. */
    DynInst &head() { return slots_[head_]; }
    const DynInst &head() const { return slots_[head_]; }

    /** Sequence number of the oldest in-flight instruction. */
    InstSeqNum
    headSeq() const
    {
        return size_ == 0 ? nextSeq_ : slots_[head_].seq;
    }

    /** Retire the head. */
    void retireHead();

    /** Lookup by sequence number; nullptr if retired or not present. */
    DynInst *
    find(InstSeqNum seq)
    {
        if (size_ == 0)
            return nullptr;
        InstSeqNum head_seq = slots_[head_].seq;
        if (seq < head_seq || seq >= head_seq + size_)
            return nullptr;
        return &slots_[slot(static_cast<std::size_t>(seq - head_seq))];
    }

    /** Next sequence number that will be assigned. */
    InstSeqNum nextSeq() const { return nextSeq_; }

    /**
     * Checkpointed state (see core/snapshot_io.hh). Every ring slot
     * travels, live or not: recycled slots carry the exact residual
     * state a straight-line run would have, which is what bit-identical
     * restore requires.
     * @param clusters The donor's hardware cluster count.
     * @param banks    The donor's L1 bank count.
     */
    template <class V>
    void
    fields(V &v, int clusters, int banks)
    {
        v.expect(slots_.size());
        for (DynInst &d : slots_)
            d.fields(v, clusters, banks);
        v.u64(head_, slots_.size() - 1);
        v.u64(size_, slots_.size());
        v.u64(nextSeq_);
        v.check(nextSeq_ >= 1);
    }

  private:
    /** Slot index for the in-flight entry at ring offset off from head. */
    std::size_t
    slot(std::size_t off) const
    {
        std::size_t i = head_ + off;
        // cap_ need not be a power of two (the paper's ROB is 480), so
        // wrap conditionally rather than masking.
        if (i >= static_cast<std::size_t>(cap_))
            i -= static_cast<std::size_t>(cap_);
        return i;
    }

    int cap_; // simlint-ignore(F001): capacity, from the config
    std::vector<DynInst> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    InstSeqNum nextSeq_ = 1; ///< seq 0 is reserved for initial values
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_ROB_HH
