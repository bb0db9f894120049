/**
 * @file
 * Calendar (bucket) queue for near-future, cycle-keyed events.
 *
 * The processor's issue-queue release events are scheduled at most a few
 * hundred cycles ahead (FU latency + interconnect hops + cache miss), so
 * a binary heap's O(log n) push/pop and comparator branches are wasted
 * work. The calendar queue keeps a power-of-two ring of per-cycle
 * buckets: push is an append to bucket `cycle & mask`, drain walks the
 * bucket for the current cycle. Events beyond the ring's window land in
 * a small overflow list that is re-binned as the window advances past
 * them (in practice the window is sized so overflow never triggers on
 * the paper machines, but correctness does not depend on that).
 *
 * Ordering contract: events for the SAME cycle are delivered in FIFO
 * push order rather than heap order. The processor's IQ-release events
 * are commutative within a cycle (counter decrements plus a flag
 * computed from state fixed for the whole drain), so this is
 * unobservable in simulated outcomes.
 *
 * Events pushed for cycles at or before the last drained cycle are
 * clamped to `drained + 1`, matching the priority-queue behaviour where
 * a past-dated event is simply popped at the next drain.
 */

#ifndef CLUSTERSIM_CORE_EVENT_QUEUE_HH
#define CLUSTERSIM_CORE_EVENT_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

// simlint: hot-path

namespace clustersim {

template <typename T, std::size_t BucketsLog2 = 9>
class CalendarQueue
{
    static constexpr std::size_t numBuckets = std::size_t(1) << BucketsLog2;
    static constexpr Cycle mask = Cycle(numBuckets - 1);

  public:
    CalendarQueue() : buckets_(numBuckets) {}

    void
    push(Cycle cycle, const T &ev)
    {
        // A past- or present-dated event is delivered at the next drain,
        // exactly as a heap pop at `now` would deliver it.
        Cycle eff = cycle <= drained_ ? drained_ + 1 : cycle;
        if (eff < drained_ + numBuckets) {
            // simlint-ignore(H002): bucket capacity is retained across
            // clear(); after warmup every append reuses old storage
            buckets_[eff & mask].push_back(ev);
        } else {
            if (overflow_.empty() || eff < overflowMin_)
                overflowMin_ = eff;
            overflow_.emplace_back(eff, ev);
        }
        ++size_;
    }

    /**
     * Deliver every event dated <= now, in cycle order (FIFO within a
     * cycle), to fn. Advances the drained watermark to now.
     */
    template <typename Fn>
    void
    drainUntil(Cycle now, Fn &&fn)
    {
        if (size_ == 0) {
            drained_ = now;
            return;
        }
        while (drained_ < now) {
            ++drained_;
            if (!overflow_.empty() && overflowMin_ <= drained_)
                rebinOverflow();
            auto &bucket = buckets_[drained_ & mask];
            if (bucket.empty())
                continue;
            // Events delivered from this bucket may push new events; a
            // push for the cycle being drained clamps to drained_+1, so
            // `bucket` is never appended to while we walk it.
            for (std::size_t i = 0; i < bucket.size(); ++i) {
                fn(bucket[i]);
                --size_;
            }
            bucket.clear();
        }
    }

    /**
     * Cycle of the earliest pending event, or neverCycle when empty.
     * O(window) scan; intended for idle-skip decisions, not per-event.
     */
    Cycle
    nextEventCycle() const
    {
        if (size_ == 0)
            return neverCycle;
        // An overflow event can predate an in-window event: it was
        // pushed when the window started earlier, so its cycle may fall
        // below a bucketed event pushed later. Take the min of both.
        Cycle limit = drained_ + numBuckets;
        for (Cycle c = drained_ + 1; c < limit; ++c) {
            if (!buckets_[c & mask].empty())
                return c < overflowMin_ ? c : overflowMin_;
        }
        CSIM_ASSERT(!overflow_.empty());
        return overflowMin_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Cycle drainedUntil() const { return drained_; }

    // simlint: cold-begin -- checkpoint serialization (see
    // core/snapshot_io.hh). Bucket phase is part of the state (cycle
    // keys are implicit in bucket indices relative to drained_), so the
    // per-bucket layout is preserved exactly. Elements go through the
    // owner's elem(T &): T may be a private type of the owner (the
    // processor's IqEvent), and only the owner knows its bounds.
    template <class V, class Fn>
    void
    fields(V &v, Fn &&elem)
    {
        v.u64(drained_);
        v.u64(overflowMin_);
        v.u64(size_);
        std::size_t seen = 0;
        for (auto &bucket : buckets_) {
            v.list(bucket, size_ - seen, elem);
            seen += bucket.size();
        }
        v.list(overflow_, size_ - seen, [&](std::pair<Cycle, T> &p) {
            v.u64(p.first);
            elem(p.second);
        });
        v.check(seen + overflow_.size() == size_);
    }
    // simlint: cold-end

  private:
    void
    rebinOverflow()
    {
        // The window start advanced to drained_; any overflow event now
        // inside [drained_, drained_ + N) can live in its real bucket.
        // Events still beyond the window stay, and overflowMin_ is
        // recomputed over the survivors.
        Cycle new_min = neverCycle;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < overflow_.size(); ++i) {
            Cycle c = overflow_[i].first;
            if (c < drained_ + numBuckets) {
                // simlint-ignore(H002): re-binning reuses retained
                // bucket capacity; overflow never fires on the paper
                // machines anyway (window >> max event horizon)
                buckets_[c & mask].push_back(overflow_[i].second);
            } else {
                if (c < new_min)
                    new_min = c;
                overflow_[kept++] = std::move(overflow_[i]);
            }
        }
        overflow_.resize(kept);
        overflowMin_ = new_min;
    }

    std::vector<std::vector<T>> buckets_;
    std::vector<std::pair<Cycle, T>> overflow_;
    Cycle overflowMin_ = neverCycle;
    Cycle drained_ = 0;
    std::size_t size_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_EVENT_QUEUE_HH
