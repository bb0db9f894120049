/**
 * @file
 * Return address stack.
 */

#ifndef CLUSTERSIM_PREDICTOR_RAS_HH
#define CLUSTERSIM_PREDICTOR_RAS_HH

#include <vector>

#include "common/types.hh"

namespace clustersim {

/**
 * Circular return-address stack. Overflow wraps (oldest entries are
 * silently overwritten); underflow returns 0 (a guaranteed mispredict).
 */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::size_t depth = 32);

    void push(Addr return_pc);
    Addr pop();
    Addr top() const;
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t depth() const { return stack_.size(); }
    void clear();

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(stack_.size());
        v.u64(topIdx_, stack_.empty() ? 0 : stack_.size() - 1);
        v.u64(size_, stack_.size());
        for (Addr &a : stack_)
            v.u64(a);
    }

  private:
    std::vector<Addr> stack_;
    std::size_t topIdx_ = 0;
    std::size_t size_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_RAS_HH
