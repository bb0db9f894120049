#include "reconfig/controller.hh"

#include "trace/observer.hh"

namespace clustersim {

void
ReconfigController::attach(int hw_clusters, int initial)
{
    hwClusters_ = hw_clusters;
    CSIM_OBSERVE(onEvent(TraceEventKind::ControllerAttach, initial,
                         static_cast<std::uint64_t>(hw_clusters)));
}

} // namespace clustersim
