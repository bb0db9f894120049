/**
 * @file
 * Combining (tournament) predictor: bimodal + two-level with a chooser,
 * as in the paper's Table 1 ("comb. of bimodal and 2-level").
 */

#ifndef CLUSTERSIM_PREDICTOR_COMBINING_HH
#define CLUSTERSIM_PREDICTOR_COMBINING_HH

#include <vector>

#include "common/sat_counter.hh"
#include "predictor/bimodal.hh"
#include "predictor/twolevel.hh"

namespace clustersim {

/** McFarling-style combining direction predictor. */
class CombiningPredictor
{
  public:
    CombiningPredictor(std::size_t bimodal_entries = 2048,
                       std::size_t l1_entries = 1024,
                       std::size_t l2_entries = 4096,
                       int history_bits = 10,
                       std::size_t chooser_entries = 4096);

    bool predict(Addr pc) const;
    void update(Addr pc, bool taken);

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        bimodal_.fields(v);
        twoLevel_.fields(v);
        v.expect(chooser_.size());
        for (SatCounter &c : chooser_)
            c.fields(v);
    }

  private:
    std::size_t chooserIndex(Addr pc) const;

    BimodalPredictor bimodal_;
    TwoLevelPredictor twoLevel_;
    /** Chooser counters: taken-half selects the two-level component. */
    std::vector<SatCounter> chooser_;
    // simlint-ignore(F001): index mask, from the config
    std::size_t chooserMask_;
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_COMBINING_HH
