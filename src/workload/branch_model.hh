/**
 * @file
 * Per-static-branch outcome models.
 */

#ifndef CLUSTERSIM_WORKLOAD_BRANCH_MODEL_HH
#define CLUSTERSIM_WORKLOAD_BRANCH_MODEL_HH

#include <cstdint>

#include "common/random.hh"
#include "workload/phase.hh"

namespace clustersim {

/**
 * Outcome generator for one static conditional branch.
 *
 * Biased branches resolve by a fixed coin bias (bimodal-predictable);
 * Pattern branches follow a short deterministic repeating pattern
 * (two-level-predictable); Random branches flip a fair-ish coin each
 * execution (structurally unpredictable).
 */
class BranchModel
{
  public:
    BranchModel() = default;

    /** Construct with an explicit class; pattern drawn from rng. */
    BranchModel(BranchClass cls, double taken_prob, Rng &rng);

    /** Produce the next dynamic outcome. */
    bool nextOutcome(Rng &rng);

    BranchClass cls() const { return cls_; }

    /** Checkpointed state: the position in the pattern (always 0 for
     *  the coin-flip classes). The rest is built from the phase spec. */
    template <class V>
    void
    fields(V &v)
    {
        v.i64(pos_, 0, patternLen_ - 1);
    }

  private:
    // simlint-ignore(F001): built from the phase spec
    BranchClass cls_ = BranchClass::Biased;
    double takenProb_ = 0.9;    // simlint-ignore(F001): from the spec
    std::uint32_t pattern_ = 0; // simlint-ignore(F001): from the spec
    int patternLen_ = 1;        // simlint-ignore(F001): from the spec
    int pos_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_WORKLOAD_BRANCH_MODEL_HH
