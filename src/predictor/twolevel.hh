/**
 * @file
 * Two-level adaptive branch predictor (per-address history, global
 * pattern table), as configured in the paper: 1024 level-1 entries with
 * 10 bits of history and a 4096-entry level-2 table.
 */

#ifndef CLUSTERSIM_PREDICTOR_TWOLEVEL_HH
#define CLUSTERSIM_PREDICTOR_TWOLEVEL_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace clustersim {

/** Two-level adaptive predictor (PAg-style). */
class TwoLevelPredictor
{
  public:
    /**
     * @param l1_entries   Level-1 (history register) table size, pow2.
     * @param l2_entries   Level-2 (pattern) table size, pow2.
     * @param history_bits Branch history length per L1 entry.
     */
    TwoLevelPredictor(std::size_t l1_entries = 1024,
                      std::size_t l2_entries = 4096,
                      int history_bits = 10);

    bool predict(Addr pc) const;
    void update(Addr pc, bool taken);

    /** Current history register value for a PC (for tests). */
    std::uint32_t history(Addr pc) const;

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(historyTable_.size());
        for (std::uint32_t &h : historyTable_)
            v.u32(h, historyMask_);
        v.expect(patternTable_.size());
        for (SatCounter &c : patternTable_)
            c.fields(v);
    }

  private:
    std::size_t l1Index(Addr pc) const;
    std::size_t l2Index(Addr pc) const;

    std::vector<std::uint32_t> historyTable_;
    std::vector<SatCounter> patternTable_;
    std::size_t l1Mask_; // simlint-ignore(F001): index mask, from the config
    std::size_t l2Mask_; // simlint-ignore(F001): index mask, from the config
    // simlint-ignore(F001): history width, from the config
    std::uint32_t historyMask_;
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_TWOLEVEL_HH
