#include "core/cluster.hh"

#include "common/logging.hh"
#include "trace/observer.hh"

// simlint: hot-path

namespace clustersim {

// simlint: cold-begin -- slot reservers are sized at construction

Cluster::Cluster(int id, const ClusterParams &params,
                 const FuLatencies &lat)
    : id_(id), params_(params), lat_(lat)
{
    CSIM_ASSERT(params.intAlus >= 1 && params.fpAlus >= 1);
    intAlus_.assign(static_cast<std::size_t>(params.intAlus),
                    SlotReserver(1024));
    intMultDivs_.assign(static_cast<std::size_t>(params.intMultDivs),
                        SlotReserver(1024));
    fpAlus_.assign(static_cast<std::size_t>(params.fpAlus),
                   SlotReserver(1024));
    fpMultDivs_.assign(static_cast<std::size_t>(params.fpMultDivs),
                       SlotReserver(1024));
}

// simlint: cold-end

void
Cluster::iqAllocate(bool fp)
{
    CSIM_ASSERT(iqHasSpace(fp), "IQ overflow");
    (fp ? fpIqUsed_ : intIqUsed_)++;
    CSIM_OBSERVE(onClusterIq(id_, fp, iqOccupancy(fp)));
}

void
Cluster::iqRelease(bool fp)
{
    int &used = fp ? fpIqUsed_ : intIqUsed_;
    CSIM_ASSERT(used > 0, "IQ underflow");
    used--;
    CSIM_OBSERVE(onClusterIq(id_, fp, iqOccupancy(fp)));
}

void
Cluster::regAllocate(bool fp)
{
    CSIM_ASSERT(regHasSpace(fp), "register file overflow");
    (fp ? fpRegsUsed_ : intRegsUsed_)++;
    CSIM_OBSERVE(onClusterRegs(id_, fp, regsUsed(fp)));
}

void
Cluster::regRelease(bool fp)
{
    int &used = fp ? fpRegsUsed_ : intRegsUsed_;
    CSIM_ASSERT(used > 0, "register file underflow");
    used--;
    CSIM_OBSERVE(onClusterRegs(id_, fp, regsUsed(fp)));
}

SlotReserver &
Cluster::unitFor(OpClass op)
{
    switch (op) {
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return intMultDivs_[0];
      case OpClass::FpAlu:
        return fpAlus_[0];
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return fpMultDivs_[0];
      default:
        return intAlus_[0];
    }
}

Cycle
Cluster::reserveFu(OpClass op, Cycle ready)
{
    // With multiple units of a kind (monolithic baseline), either pick
    // the unit that can start soonest (fuEarliestFree) or spread
    // requests round-robin by ready cycle (legacy policy, under which
    // the golden snapshot is pinned); with one unit both are exact.
    auto reserve_best = [&](std::vector<SlotReserver> &units,
                            Cycle span) -> Cycle {
        std::size_t idx = 0;
        if (units.size() > 1) {
            if (params_.fuEarliestFree) {
                Cycle best = neverCycle;
                for (std::size_t u = 0; u < units.size(); u++) {
                    Cycle c = span > 1
                        ? units[u].firstFreeSpan(ready, span)
                        : units[u].firstFree(ready);
                    if (c < best) {
                        best = c;
                        idx = u;
                    }
                }
            } else {
                idx = static_cast<std::size_t>(ready) % units.size();
            }
        }
        return span > 1 ? units[idx].reserveSpan(ready, span)
                        : units[idx].reserve(ready);
    };

    bool non_pipelined = op == OpClass::IntDiv || op == OpClass::FpDiv;
    Cycle span = non_pipelined ? latency(op) : 1;
    switch (op) {
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return reserve_best(intMultDivs_, span);
      case OpClass::FpAlu:
        return reserve_best(fpAlus_, span);
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return reserve_best(fpMultDivs_, span);
      default:
        return reserve_best(intAlus_, span);
    }
}

Cycle
Cluster::latency(OpClass op) const
{
    switch (op) {
      case OpClass::IntMult: return lat_.intMult;
      case OpClass::IntDiv:  return lat_.intDiv;
      case OpClass::FpAlu:   return lat_.fpAlu;
      case OpClass::FpMult:  return lat_.fpMult;
      case OpClass::FpDiv:   return lat_.fpDiv;
      default:               return lat_.intAlu;
    }
}

} // namespace clustersim
