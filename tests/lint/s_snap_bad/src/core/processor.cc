#include "core/processor.hh"

void
Processor::restore(const Snapshot &s)
{
    cycle_ = s.cycle;
    // ghostPending is never applied: restored runs diverge.
}
