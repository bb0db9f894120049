/**
 * @file
 * Offline oracle: the performance upper bound for interval-grained
 * reconfiguration.
 *
 * The oracle is computed in two steps. First, probe runs pin each
 * candidate configuration for a whole run and record the per-interval
 * cycle cost of every fixed-length committed-instruction interval (the
 * TimeSeriesRecorder rows -- see sim/oracle_policy.hh for the probe
 * driver). Second, solveOracleSchedule() runs a dynamic program over
 * those rows: it picks one configuration per interval minimizing total
 * cycles plus a configurable per-switch reconfiguration penalty, which
 * is exactly the best any interval-grained controller could do with
 * perfect knowledge of the future. The OracleController then replays
 * that schedule keyed on the committed-instruction count.
 *
 * The committed stream is configuration-independent in this simulator
 * (fetch-gated mispredicts, no wrong-path commits), so instruction-
 * aligned intervals match across the probe runs and the oracle run.
 * Replaying by committed-instruction index replaces the retired scratch
 * tool's PC decode (`(pc - 0x400000) >> 24`), which unsigned-wrapped to
 * a huge phase index for any pc below the generator base: no PC is
 * decoded at all, so no pc-range validation can be forgotten.
 */

#ifndef CLUSTERSIM_RECONFIG_ORACLE_HH
#define CLUSTERSIM_RECONFIG_ORACLE_HH

#include <cstdint>
#include <vector>

#include "reconfig/controller.hh"
#include "trace/timeseries.hh"

namespace clustersim {

/**
 * Choose one configuration per interval minimizing total cycles plus
 * `switch_penalty_cycles` per configuration change (a dynamic program
 * over phase boundaries; ties prefer fewer clusters, and the first
 * interval is penalty-free). `rows[k]` holds the per-interval
 * time-series rows of the probe run pinned at `configs[k]`; intervals
 * past a probe's last row reuse its final row's cost, so a probe that
 * closed one fewer interval (end-of-run jitter) still competes.
 *
 * @return One entry of `configs` per interval; empty when every probe
 *         produced zero rows.
 */
std::vector<int> solveOracleSchedule(
    const std::vector<int> &configs,
    const std::vector<std::vector<TimeSeriesRow>> &rows,
    double switch_penalty_cycles);

/**
 * Replays a precomputed per-interval schedule keyed on the committed
 * instruction count since attach. The schedule and interval length are
 * identity (factory-provided), not dynamic state: checkpoints persist
 * only the committed count.
 */
class OracleController
    : public CheckpointedController<OracleController>
{
  public:
    /**
     * @param interval_length Instructions per schedule slot (>= 1).
     * @param schedule        Cluster count per slot; commits past the
     *                        last slot hold its configuration. An
     *                        empty schedule degenerates to static-16.
     */
    OracleController(std::uint64_t interval_length,
                     std::vector<int> schedule);

    void attach(int hw_clusters, int initial) override;
    void onCommit(const CommitEvent &ev) override;
    int targetClusters() const override { return target_; }
    std::string name() const override { return "oracle"; }

    std::unique_ptr<ReconfigController>
    clone() const override
    {
        return std::make_unique<OracleController>(*this);
    }

    std::uint64_t committed() const { return committed_; }
    const std::vector<int> &schedule() const { return schedule_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        // The schedule and interval length are identity, rebuilt by the
        // factory; only the replay position is dynamic. target_ travels
        // so a payload from a different schedule (or horizon), which
        // would desync the replay, is caught.
        v.u64(committed_);
        v.i64(target_, 1, hwClusters_);
        v.check(target_ == targetAt(committed_));
    }

  private:
    int targetAt(std::uint64_t committed) const;

    // simlint-ignore(F001): factory identity, part of the oracle key
    std::uint64_t intervalLength_;
    /** Factory-provided schedule; attach() clamps to the hardware. */
    // simlint-ignore(F001): factory identity, part of the oracle key
    std::vector<int> schedule_;

    std::uint64_t committed_ = 0;
    int target_ = 16;
};

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_ORACLE_HH
