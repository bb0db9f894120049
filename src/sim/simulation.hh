/**
 * @file
 * Top-level simulation driver: builds a workload and a processor, runs
 * warmup + measurement, and extracts the metrics the paper reports.
 */

#ifndef CLUSTERSIM_SIM_SIMULATION_HH
#define CLUSTERSIM_SIM_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "core/processor.hh"
#include "trace/timeseries.hh"
#include "workload/benchmarks.hh"

namespace clustersim {

/** Result of one (benchmark, configuration) run. */
struct SimResult {
    std::string benchmark;
    std::string config;
    double ipc = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    /** Committed instructions per branch mispredict (Table 3). */
    double mispredictInterval = 0.0;
    double branchAccuracy = 0.0;
    double l1MissRate = 0.0;
    double avgActiveClusters = 0.0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t flushWritebacks = 0;
    /** Mean latency of every interconnect transfer (register operands,
     *  load/store addresses and data, broadcasts), cycles. */
    double avgRegCommLatency = 0.0;
    /** Fraction of issued instructions that were distant. */
    double distantFraction = 0.0;
    double bankPredAccuracy = 0.0;
    /**
     * Per-interval time series of the measurement window. Populated
     * only when a TraceSink with an enabled TimeSeriesRecorder is the
     * observer in scope during a run of an observe build (see
     * trace/trace.hh); empty otherwise, and omitted from JSON reports
     * when empty.
     */
    std::vector<TimeSeriesRow> timeSeries;
    /** Interval length (instructions) of timeSeries; 0 when empty. */
    std::uint64_t timeSeriesInterval = 0;

    /** Every metric under its report key, in report order. */
    template <class V>
    void
    fields(V &v)
    {
        v("benchmark", benchmark);
        v("config", config);
        v("ipc", ipc);
        v("instructions", instructions);
        v("cycles", cycles);
        v("mispredict_interval", mispredictInterval);
        v("branch_accuracy", branchAccuracy);
        v("l1_miss_rate", l1MissRate);
        v("avg_active_clusters", avgActiveClusters);
        v("reconfigurations", reconfigurations);
        v("flush_writebacks", flushWritebacks);
        v("avg_reg_comm_latency", avgRegCommLatency);
        v("distant_fraction", distantFraction);
        v("bank_pred_accuracy", bankPredAccuracy);
        // Present only when an observe-build run recorded a series:
        // default builds must keep golden reports byte-identical, and
        // the golden differ treats a key present on one side as a
        // mismatch.
        if (!timeSeries.empty()) {
            v("time_series_interval", timeSeriesInterval);
            v("time_series", timeSeries);
        }
    }
};

/** Default run lengths (instructions). */
inline constexpr std::uint64_t defaultWarmup = 200000;
inline constexpr std::uint64_t defaultMeasure = 1000000;

/**
 * Run one benchmark on one configuration.
 *
 * @param cfg        Processor configuration.
 * @param workload   Workload spec (a fresh generator is built).
 * @param controller Optional reconfiguration controller (not owned).
 * @param warmup     Warmup instructions (stats reset afterwards).
 * @param measure    Measured instructions.
 */
SimResult runSimulation(const ProcessorConfig &cfg,
                        const WorkloadSpec &workload,
                        ReconfigController *controller = nullptr,
                        std::uint64_t warmup = defaultWarmup,
                        std::uint64_t measure = defaultMeasure);

/**
 * Run the measurement window on an already-prepared processor and
 * extract metrics. The caller must have completed warmup and called
 * proc.resetStats() (or restored a post-warmup, post-reset snapshot).
 * Fills every SimResult field except benchmark/config, which describe
 * the run point and are set by the caller. runSimulation() and the
 * checkpointed sweep path both delegate here, so a restored run is
 * metric-extracted identically to a straight-line one.
 */
SimResult measureWindow(Processor &proc, std::uint64_t measure);

} // namespace clustersim

#endif // CLUSTERSIM_SIM_SIMULATION_HH
