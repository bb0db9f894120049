#include "reconfig/oracle.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "trace/observer.hh"

namespace clustersim {

std::vector<int>
solveOracleSchedule(const std::vector<int> &configs,
                    const std::vector<std::vector<TimeSeriesRow>> &rows,
                    double switch_penalty_cycles)
{
    CSIM_ASSERT(!configs.empty() && rows.size() == configs.size());
    CSIM_ASSERT(switch_penalty_cycles >= 0.0);

    // Probes run the same committed stream, but the final interval can
    // straddle the horizon differently per configuration; plan over the
    // longest probe and let shorter ones reuse their last row's cost.
    std::size_t intervals = 0;
    for (const auto &r : rows)
        intervals = std::max(intervals, r.size());
    if (intervals == 0)
        return {};

    const std::size_t k = configs.size();
    auto cost = [&](std::size_t cfg, std::size_t i) {
        const std::vector<TimeSeriesRow> &r = rows[cfg];
        if (r.empty())
            return std::numeric_limits<double>::infinity();
        const TimeSeriesRow &row = r[std::min(i, r.size() - 1)];
        return static_cast<double>(row.endCycle - row.startCycle);
    };

    // f[i][c]: minimum cycles to finish intervals 0..i ending in
    // configuration c. The first interval is penalty-free (the machine
    // has to start somewhere); every later change costs the penalty.
    std::vector<std::vector<double>> f(
        intervals, std::vector<double>(k, 0.0));
    std::vector<std::vector<std::size_t>> from(
        intervals, std::vector<std::size_t>(k, 0));
    for (std::size_t c = 0; c < k; c++)
        f[0][c] = cost(c, 0);
    for (std::size_t i = 1; i < intervals; i++) {
        for (std::size_t c = 0; c < k; c++) {
            double best = std::numeric_limits<double>::infinity();
            std::size_t arg = 0;
            for (std::size_t p = 0; p < k; p++) {
                double v = f[i - 1][p] +
                    (p == c ? 0.0 : switch_penalty_cycles);
                // Strict '<' over ascending candidates: cost ties in
                // the predecessor prefer fewer clusters.
                if (v < best) {
                    best = v;
                    arg = p;
                }
            }
            f[i][c] = best + cost(c, i);
            from[i][c] = arg;
        }
    }

    std::size_t end = 0;
    for (std::size_t c = 1; c < k; c++)
        if (f[intervals - 1][c] < f[intervals - 1][end])
            end = c;

    std::vector<int> schedule(intervals, configs[0]);
    std::size_t cur = end;
    for (std::size_t i = intervals; i-- > 0;) {
        schedule[i] = configs[cur];
        cur = from[i][cur];
    }
    return schedule;
}

OracleController::OracleController(std::uint64_t interval_length,
                                   std::vector<int> schedule)
    : intervalLength_(interval_length), schedule_(std::move(schedule))
{
    CSIM_ASSERT(interval_length >= 1);
    if (!schedule_.empty())
        target_ = schedule_.front();
}

int
OracleController::targetAt(std::uint64_t committed) const
{
    if (schedule_.empty())
        return std::min(16, hwClusters_);
    std::uint64_t idx = committed / intervalLength_;
    if (idx >= schedule_.size())
        idx = schedule_.size() - 1;
    return std::min(schedule_[idx], hwClusters_);
}

void
OracleController::attach(int hw_clusters, int initial)
{
    ReconfigController::attach(hw_clusters, initial);
    committed_ = 0;
    target_ = targetAt(0);
    CSIM_OBSERVE(onControllerAttach(name(), hw_clusters, target_));
}

void
OracleController::onCommit(const CommitEvent &)
{
    committed_++;
    int t = targetAt(committed_);
    if (t != target_) {
        target_ = t;
        CSIM_OBSERVE(onEvent(TraceEventKind::TargetChange, target_,
                             committed_));
    }
}

} // namespace clustersim
