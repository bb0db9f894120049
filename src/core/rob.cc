#include "core/rob.hh"

#include "common/logging.hh"
#include "trace/observer.hh"

// simlint: hot-path

namespace clustersim {

// simlint: cold-begin -- the slot ring is sized once at construction

ReorderBuffer::ReorderBuffer(int capacity) : cap_(capacity)
{
    CSIM_ASSERT(capacity >= 1);
    slots_.resize(static_cast<std::size_t>(capacity));
}

// simlint: cold-end

DynInst &
ReorderBuffer::allocate(const MicroOp &op)
{
    CSIM_ASSERT(!full(), "ROB overflow");
    DynInst &inst = slots_[slot(size_)];
    ++size_;
    inst.reset(op, nextSeq_++);
    CSIM_OBSERVE(onRobAllocate(inst.seq, size_, cap_));
    return inst;
}

void
ReorderBuffer::retireHead()
{
    CSIM_ASSERT(size_ > 0, "ROB underflow");
    CSIM_OBSERVE(onRobRetire(slots_[head_].seq, size_ - 1));
    head_ = slot(1);
    --size_;
}

} // namespace clustersim
