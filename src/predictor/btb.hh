/**
 * @file
 * Branch target buffer: 2048 sets, 2-way (Table 1).
 */

#ifndef CLUSTERSIM_PREDICTOR_BTB_HH
#define CLUSTERSIM_PREDICTOR_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace clustersim {

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    Btb(std::size_t sets = 2048, int ways = 2);

    /** Look up the predicted target for a branch at pc. */
    std::optional<Addr> lookup(Addr pc) const;

    /** Install/refresh the target for a taken branch. */
    void update(Addr pc, Addr target);

    std::size_t sets() const { return sets_; }
    int ways() const { return ways_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(entries_.size());
        for (Entry &e : entries_)
            e.fields(v);
        v.u64(useClock_);
    }

  private:
    struct Entry {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;

        template <class V>
        void
        fields(V &v)
        {
            v.boolean(valid);
            v.u64(tag);
            v.u64(target);
            v.u64(lastUse);
        }
    };

    std::size_t setIndex(Addr pc) const;

    std::size_t sets_; // simlint-ignore(F001): geometry, from the config
    int ways_;         // simlint-ignore(F001): geometry, from the config
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_BTB_HH
