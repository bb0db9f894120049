/**
 * @file
 * Bimodal (per-PC 2-bit counter) branch direction predictor.
 */

#ifndef CLUSTERSIM_PREDICTOR_BIMODAL_HH
#define CLUSTERSIM_PREDICTOR_BIMODAL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace clustersim {

/** Classic bimodal predictor: a table of 2-bit counters indexed by PC. */
class BimodalPredictor
{
  public:
    /** @param entries Table size; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries = 2048);

    /** Predict the direction of the branch at pc. */
    bool predict(Addr pc) const;

    /** Train with the actual outcome. */
    void update(Addr pc, bool taken);

    std::size_t entries() const { return table_.size(); }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(table_.size());
        for (SatCounter &c : table_)
            c.fields(v);
    }

  private:
    std::size_t index(Addr pc) const;

    std::vector<SatCounter> table_;
    std::size_t mask_; // simlint-ignore(F001): index mask, from the config
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_BIMODAL_HH
