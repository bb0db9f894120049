#include "sim/simulation.hh"

#include "check/invariant.hh"

namespace clustersim {

SimResult
runSimulation(const ProcessorConfig &cfg, const WorkloadSpec &workload,
              ReconfigController *controller, std::uint64_t warmup,
              std::uint64_t measure)
{
    DefaultObserverScope observer;
    SyntheticWorkload trace(workload);
    Processor proc(cfg, &trace, controller);

    if (warmup > 0) {
        proc.run(warmup);
        proc.resetStats();
    }

    SimResult res = measureWindow(proc, measure);
    res.benchmark = workload.name;
    res.config = cfg.name;
    return res;
}

SimResult
measureWindow(Processor &proc, std::uint64_t measure)
{
    // The milestones are cold, always-compiled code (runtime-gated on
    // the installed observer, unlike the CSIM_OBSERVE hot-path hooks).
    // Observation never feeds back into the simulation, so results are
    // bit-identical with or without an observer in scope.
    Observer *observer = currentObserver();
    if (observer)
        observer->onMeasureStart(proc.cycle());

    SimResult res;

    // An empty measurement window yields all-zero metrics; without this
    // early return, rate stats whose zero-denominator guards return 1.0
    // (branch accuracy, bank-prediction accuracy) and warmup-carried
    // state would leak into the "measured" result.
    if (measure == 0)
        return res;

    Cycle measure_start = proc.cycle();
    std::uint64_t committed_start = proc.committed();
    proc.run(measure);

    const ProcessorStats &st = proc.stats();
    Cycle cycles = proc.cycle() - measure_start;
    std::uint64_t insts = proc.committed() - committed_start;

    res.instructions = insts;
    res.cycles = cycles;
    res.ipc = cycles ? static_cast<double>(insts) /
                           static_cast<double>(cycles)
                     : 0.0;
    res.mispredictInterval = st.mispredicts
        ? static_cast<double>(insts) /
              static_cast<double>(st.mispredicts)
        : static_cast<double>(insts);
    res.branchAccuracy = proc.fetch().branchUnit().accuracy();
    res.l1MissRate = proc.l1().missRate();
    res.avgActiveClusters = st.avgActiveClusters();
    res.reconfigurations = st.reconfigurations;
    res.flushWritebacks = st.flushWritebacks;
    res.avgRegCommLatency = proc.network().avgLatency();
    res.distantFraction = insts
        ? static_cast<double>(st.distantIssued) /
              static_cast<double>(insts)
        : 0.0;
    res.bankPredAccuracy = st.bankLookups
        ? 1.0 - static_cast<double>(st.bankMispredicts) /
                    static_cast<double>(st.bankLookups)
        : 1.0;
    if (observer)
        observer->onMeasureEnd(proc.cycle(), res);
    return res;
}

} // namespace clustersim
