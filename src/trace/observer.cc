#include "trace/observer.hh"

namespace clustersim {

namespace {

thread_local Observer *tlObserver = nullptr;

} // namespace

Observer *
currentObserver()
{
    return tlObserver;
}

ObserverScope::ObserverScope(Observer &observer) : prev_(tlObserver)
{
    tlObserver = &observer;
}

ObserverScope::~ObserverScope()
{
    tlObserver = prev_;
}

} // namespace clustersim
