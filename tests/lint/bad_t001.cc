// simlint fixture: T001 must fire on observer access that bypasses
// the CSIM_OBSERVE compile-time gate in hot-path code; cold regions
// (construction-time wiring) are exempt.
// simlint: hot-path

// simlint: cold-begin -- declarations and attach-time wiring
namespace clustersim {
class Observer;
class ObserverScope;
class TraceSink;
class InvariantChecker;
Observer *currentObserver();
} // namespace clustersim

void
attachObserver()
{
    clustersim::Observer *observer = clustersim::currentObserver();
    (void)observer;
}
// simlint: cold-end

void
issueOne(int cluster, int occupancy)
{
    // Always-compiled hooks: the default build would pay for each.
    if (clustersim::Observer *observer = clustersim::currentObserver())
        (void)observer;
    clustersim::ObserverScope *scope = nullptr;
    clustersim::TraceSink *sink = nullptr;
    clustersim::InvariantChecker *checker = nullptr;
    (void)scope;
    (void)sink;
    (void)checker;
    (void)cluster;
    (void)occupancy;
}
