/**
 * @file
 * Saturating counter, the workhorse of every table-based predictor.
 */

#ifndef CLUSTERSIM_COMMON_SAT_COUNTER_HH
#define CLUSTERSIM_COMMON_SAT_COUNTER_HH

#include <cstdint>

namespace clustersim {

/**
 * An n-bit saturating counter. Predicts "taken" when in the upper half
 * of its range.
 */
class SatCounter
{
  public:
    explicit SatCounter(int bits = 2, std::uint8_t initial = 0)
        : max_(static_cast<std::uint8_t>((1u << bits) - 1)),
          value_(initial > max_ ? max_ : initial)
    {}

    void
    increment()
    {
        if (value_ < max_)
            value_++;
    }

    void
    decrement()
    {
        if (value_ > 0)
            value_--;
    }

    /** Move toward taken (true) or not-taken (false). */
    void
    update(bool taken)
    {
        if (taken)
            increment();
        else
            decrement();
    }

    /** True when the counter is in the taken half of its range. */
    bool predictTaken() const { return value_ > (max_ >> 1); }

    std::uint8_t value() const { return value_; }
    std::uint8_t max() const { return max_; }

    /**
     * Checkpointed state (see core/snapshot_io.hh). The width is
     * construction-time shape: a stored counter must agree with the
     * in-memory one it is loaded into.
     */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(max_);
        v.u8(value_, max_);
    }

  private:
    std::uint8_t max_;
    std::uint8_t value_;
};

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_SAT_COUNTER_HH
