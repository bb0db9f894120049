/**
 * @file
 * Criticality predictor used by the steering heuristic (Section 2.1):
 * gives higher priority to the cluster producing the critical source
 * operand. Approximates the last-arriving-operand training rule of
 * Fields et al. / Tune et al. with a per-PC saturating counter table.
 */

#ifndef CLUSTERSIM_PREDICTOR_CRITICALITY_HH
#define CLUSTERSIM_PREDICTOR_CRITICALITY_HH

#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace clustersim {

/** Table-based criticality predictor. */
class CriticalityPredictor
{
  public:
    explicit CriticalityPredictor(std::size_t entries = 8192);

    /** Is the instruction at pc predicted to produce critical values? */
    bool isCritical(Addr pc) const;

    /**
     * Train: the producer at pc produced the last-arriving (critical)
     * operand of some consumer (critical=true), or produced an operand
     * that arrived early (critical=false).
     */
    void train(Addr pc, bool critical);

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

#endif // CLUSTERSIM_PREDICTOR_CRITICALITY_HH
