/**
 * @file
 * Complete front-end branch unit: combining direction predictor, BTB,
 * and return address stack, with misprediction accounting.
 */

#ifndef CLUSTERSIM_PREDICTOR_BRANCH_UNIT_HH
#define CLUSTERSIM_PREDICTOR_BRANCH_UNIT_HH

#include "common/stats.hh"
#include "predictor/btb.hh"
#include "predictor/combining.hh"
#include "predictor/ras.hh"
#include "workload/isa.hh"

namespace clustersim {

/** Configuration of the branch unit (paper Table 1 defaults). */
struct BranchUnitParams {
    std::size_t bimodalEntries = 2048;
    std::size_t l1Entries = 1024;
    std::size_t l2Entries = 4096;
    int historyBits = 10;
    std::size_t chooserEntries = 4096;
    std::size_t btbSets = 2048;
    int btbWays = 2;
    std::size_t rasDepth = 32;
};

/**
 * The front-end branch unit.
 *
 * The core is trace-driven, so the unit is queried with the *actual*
 * control op and reports whether fetch would have followed the correct
 * path; a wrong direction, a wrong/unknown target, or a RAS mismatch all
 * redirect fetch at branch resolution.
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchUnitParams &params = {});

    /**
     * Predict the control op and train the predictor.
     * @return true if fetch follows the correct path (no redirect).
     */
    bool predict(const MicroOp &op);

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t mispredicts() const { return mispredicts_.value(); }
    std::uint64_t dirMispredicts() const { return dirMispredicts_.value(); }
    std::uint64_t targetMispredicts() const
    {
        return targetMispredicts_.value();
    }

    double
    accuracy() const
    {
        return lookups() ? 1.0 - static_cast<double>(mispredicts()) /
                                     static_cast<double>(lookups())
                         : 1.0;
    }

    void resetStats();

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        direction_.fields(v);
        btb_.fields(v);
        ras_.fields(v);
        lookups_.fields(v);
        mispredicts_.fields(v);
        dirMispredicts_.fields(v);
        targetMispredicts_.fields(v);
    }

  private:
    CombiningPredictor direction_;
    Btb btb_;
    ReturnAddressStack ras_;

    Counter lookups_;
    Counter mispredicts_;
    Counter dirMispredicts_;
    Counter targetMispredicts_;
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_BRANCH_UNIT_HH
