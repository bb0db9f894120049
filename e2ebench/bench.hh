/**
 * @file
 * Shared pieces of the end-to-end benchmark harness: the host clock, the
 * in-memory span log of traced runs, the metric sink and the run
 * outcome every workload fills.
 *
 * Every time here is host time read from the benchmark's own clock
 * around calls into the library's public API; nothing inside src/ is
 * instrumented. Simulated quantities (instructions, cycles, stall
 * counts) come from the library's results and repeat exactly.
 */

#ifndef E2EBENCH_BENCH_HH
#define E2EBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Knobs of one harness invocation (see main.cc for the flags). */
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;          ///< self-check scale
    std::string workdir;        ///< fresh per run, removed by the caller
    std::string spansPath;      ///< where a traced run writes its spans
};

/** Sweep workers in-process and sweepd --workers served (nproc is 4). */
inline constexpr int workers = 2;

/**
 * One timed interval of a traced run. Spans of one lane (thread) nest
 * strictly and never overlap their siblings, so a span's self time is
 * its duration minus its children's.
 */
struct Span {
    const char *name = "";
    std::int64_t startNs = 0;   ///< since the run's epoch
    std::int64_t endNs = 0;
    int parent = -1;            ///< index in the same lane; -1 = root
    std::uint64_t id = 0;       ///< point index or job number
};

/** Append-only span recorder for one lane; owned by one thread. */
class SpanLane
{
  public:
    SpanLane(int lane, Clock::time_point epoch)
        : lane_(lane), epoch_(epoch)
    {}

    int
    open(const char *name, int parent, std::uint64_t id)
    {
        spans_.push_back({name, now(), 0, parent, id});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int idx) { spans_[static_cast<std::size_t>(idx)].endNs = now(); }

    /** Record a span that was timed elsewhere (e.g. frame arrivals). */
    void
    add(const char *name, Clock::time_point a, Clock::time_point b,
        int parent, std::uint64_t id)
    {
        spans_.push_back({name, ns(a), ns(b), parent, id});
    }

    std::int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_).count();
    }

    int lane() const { return lane_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t now() const { return ns(Clock::now()); }

    int lane_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Runs `f` inside span `name`. */
template <class F>
auto
traced(SpanLane &lane, const char *name, int parent, std::uint64_t id,
       F &&f)
{
    struct Closer {
        SpanLane &l;
        int s;
        ~Closer() { l.close(s); }
    } closer{lane, lane.open(name, parent, id)};
    return f();
}

/** Per-name totals over a set of lanes: summed duration and self time. */
struct SpanTotals {
    std::map<std::string, double> seconds;
    std::map<std::string, double> selfSeconds;

    void addLane(const SpanLane &lane);
    double sec(const std::string &n) const;
    double self(const std::string &n) const;
};

/** Named metrics with units, in emission order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!values_.count(name))
            order_.push_back(name);
        values_[name] = {value, unit};
    }

    const std::vector<std::string> &order() const { return order_; }
    const std::pair<double, std::string> &at(const std::string &n) const
    {
        return values_.at(n);
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** What one workload run reports back to main(). */
struct Outcome {
    Metrics metrics;
    std::uint64_t attempted = 0;    ///< points (in-process) or jobs
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** sha256 of the timing-free report the default-seed check pins. */
    std::string reportSha256;
    /** Sample counts behind the percentile metrics, for the log. */
    std::map<std::string, std::uint64_t> samples;
    std::vector<SpanLane> lanes;    ///< traced runs only
};

/** Shared helpers (main.cc). */
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);
double peakRssMb();
std::uint64_t dirBytes(const std::string &dir);
bool writeFile(const std::string &path, const std::string &data);

/** Workload entry points (inproc.cc, served.cc). */
Outcome runTournamentCold(const RunConfig &cfg);
Outcome runWarmFig3(const RunConfig &cfg);
Outcome runServedMixed(const RunConfig &cfg);

/** Every per-layer metric, zero-filled, so each workload emits the
 *  full set; workloads overwrite what applies to them. */
void zeroLayerMetrics(Metrics &m);

} // namespace e2ebench

#endif // E2EBENCH_BENCH_HH
