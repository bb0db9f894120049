/**
 * @file
 * Lightweight statistics primitives: named counters, averages, and
 * fixed-bucket histograms, plus a registry for formatted dumps.
 */

#ifndef CLUSTERSIM_COMMON_STATS_HH
#define CLUSTERSIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace clustersim {

/** Simple accumulating counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.u64(value_);
    }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean over samples (Welford-free: sum/count is sufficient). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_++;
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Histogram with uniform buckets over [min, max); outliers clamp. */
class Histogram
{
  public:
    Histogram(double min, double max, std::size_t buckets);

    void sample(double v, std::uint64_t weight = 1);
    void reset();

    std::uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /** Fraction of samples at or above the given value. */
    double fractionAtLeast(double v) const;

  private:
    double min_, max_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A named bag of scalar statistics, used for end-of-run dumps.
 * Values are stored as doubles; insertion order is preserved.
 */
class StatSet
{
  public:
    void set(const std::string &name, double value);
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    /** Render as "name = value" lines. */
    std::string format() const;

    const std::vector<std::pair<std::string, double>> &entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<std::string, double>> entries_;
    std::map<std::string, std::size_t> index_;
};

/** Geometric mean of a vector of positive values (0 on empty input). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (0 on empty input). */
double amean(const std::vector<double> &values);

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_STATS_HH
