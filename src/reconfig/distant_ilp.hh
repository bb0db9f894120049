/**
 * @file
 * Distant-ILP tracking (Sections 4.3/4.4).
 *
 * An instruction is *distant* if, at issue, it was at least 120
 * instructions younger than the oldest instruction in the ROB (the
 * processor computes the flag). This tracker maintains the running
 * count of distant instructions among the last W committed
 * instructions; when an instruction leaves the window, the count is
 * exactly the distant-ILP degree of the W instructions that followed it
 * -- the quantity the fine-grained scheme attributes to branches.
 */

#ifndef CLUSTERSIM_RECONFIG_DISTANT_ILP_HH
#define CLUSTERSIM_RECONFIG_DISTANT_ILP_HH

#include <vector>

#include "common/types.hh"

namespace clustersim {

/** Sliding-window distant-ILP counter. */
class DistantIlpTracker
{
  public:
    /** One record leaving the window. */
    struct Evicted {
        bool valid = false;
        Addr pc = 0;
        bool marked = false; ///< caller-defined (e.g. reconfig point)
        int distantFollowing = 0; ///< distant count among the next W
    };

    explicit DistantIlpTracker(int window = 360);

    /**
     * Push a committed instruction.
     * @param pc      Instruction pc.
     * @param distant Its distant flag.
     * @param marked  Caller's tag (e.g. "is a sampled branch").
     * @return The evicted record once the window is full.
     */
    Evicted push(Addr pc, bool distant, bool marked);

    /** Distant instructions currently in the window. */
    int count() const { return count_; }

    int window() const { return static_cast<int>(ring_.size()); }
    bool full() const { return size_ == ring_.size(); }

    void reset();

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(ring_.size());
        for (Slot &s : ring_)
            s.fields(v);
        v.u64(head_, ring_.empty() ? 0 : ring_.size() - 1);
        v.u64(size_, ring_.size());
        v.i64(count_, 0, static_cast<std::int64_t>(size_));
    }

  private:
    struct Slot {
        Addr pc = 0;
        bool distant = false;
        bool marked = false;

        template <class V>
        void
        fields(V &v)
        {
            v.u64(pc);
            v.boolean(distant);
            v.boolean(marked);
        }
    };

    std::vector<Slot> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    int count_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_DISTANT_ILP_HH
