#include "trace/trace.hh"

#include <cstdio>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/dyn_inst.hh"
#include "memory/lsq.hh"
#include "sim/simulation.hh"

namespace clustersim {

namespace {

const char *const eventNames[numTraceEventKinds] = {
    "controller_attach", "target_change",   "explore_start",
    "explore_step",      "explore_abort",   "explore_adopt",
    "interval_double",   "phase_change",    "discontinue",
    "ilp_decide",        "table_flush",     "table_decide",
    "table_conflict",    "reconfig_apply",  "reconfig_pending",
    "cache_flush",       "measure_start",   "measure_end",
    "iq",                "regs",            "rob",
    "lsq",               "link",            "active_clusters",
};

bool
isSampleKind(TraceEventKind kind)
{
    return kind >= TraceEventKind::IqSample;
}

} // namespace

const char *
traceEventName(TraceEventKind kind)
{
    int i = static_cast<int>(kind);
    CSIM_ASSERT(i >= 0 && i < numTraceEventKinds);
    return eventNames[i];
}

TraceSink::TraceSink(std::size_t ring_capacity, Cycle sample_period)
    : ring_(ring_capacity), samplePeriod_(sample_period)
{
    CSIM_ASSERT(ring_capacity >= 1, "trace ring needs capacity");
    CSIM_ASSERT(sample_period >= 1, "sample period must be positive");
}

void
TraceSink::record(TraceEventKind kind, std::uint16_t unit,
                  std::int32_t arg, std::uint64_t aux, double val)
{
    TraceEvent &slot = ring_[count_ % ring_.size()];
    slot.cycle = cycle_;
    slot.kind = kind;
    slot.unit = unit;
    slot.arg = arg;
    slot.aux = aux;
    slot.val = val;
    count_++;
}

void
TraceSink::onCommit(const DynInst &head, Cycle now)
{
    series_.onCommit(head.op.op, head.distant, now, activeClusters_);
}

void
TraceSink::onLsqAllocate(const LoadStoreQueue &lsq)
{
    lsqOcc_ = lsq.size();
}

void
TraceSink::onLsqRelease(const LoadStoreQueue &lsq, InstSeqNum)
{
    lsqOcc_ = lsq.size();
}

void
TraceSink::onMeasureStart(Cycle cycle)
{
    onEvent(TraceEventKind::MeasureStart, 0, cycle, 0.0);
    // The time series describes the measurement window only, like
    // every other SimResult metric: drop warmup rows.
    series_.reset();
}

void
TraceSink::onMeasureEnd(Cycle cycle, SimResult &res)
{
    onEvent(TraceEventKind::MeasureEnd, 0, cycle, 0.0);
    // Keep the documented invariant "interval is 0 when the series is
    // empty": a default build (or a run shorter than one interval)
    // records no rows even with a recorder enabled.
    if (series_.enabled() && !series_.rows().empty()) {
        res.timeSeries = series_.rows();
        res.timeSeriesInterval = series_.interval();
    }
}

void
TraceSink::emitSamples()
{
    nextSample_ = cycle_ + samplePeriod_;
    record(TraceEventKind::ActiveSample, 0, activeClusters_, 0, 0.0);
    for (int c = 0; c < unitsSeen_; c++) {
        record(TraceEventKind::IqSample,
               static_cast<std::uint16_t>(c), iqOcc_[0][c],
               static_cast<std::uint64_t>(iqOcc_[1][c]), 0.0);
        record(TraceEventKind::RegSample,
               static_cast<std::uint16_t>(c), regOcc_[0][c],
               static_cast<std::uint64_t>(regOcc_[1][c]), 0.0);
    }
    record(TraceEventKind::RobSample, 0,
           static_cast<std::int32_t>(robOcc_), 0, 0.0);
    record(TraceEventKind::LsqSample, 0,
           static_cast<std::int32_t>(lsqOcc_), 0, 0.0);
    double avg_delay = xferCount_
        ? static_cast<double>(xferDelay_)
              / static_cast<double>(xferCount_)
        : 0.0;
    record(TraceEventKind::LinkSample, 0,
           static_cast<std::int32_t>(xferCount_), xferHops_,
           avg_delay);
    xferCount_ = 0;
    xferHops_ = 0;
    xferDelay_ = 0;
}

void
TraceSink::enableTimeSeries(std::uint64_t interval_insts)
{
    series_.configure(interval_insts);
}

std::vector<TraceEvent>
TraceSink::eventsInOrder() const
{
    std::vector<TraceEvent> out;
    std::size_t n =
        count_ < ring_.size() ? static_cast<std::size_t>(count_)
                              : ring_.size();
    out.reserve(n);
    std::size_t first = count_ < ring_.size()
        ? 0
        : static_cast<std::size_t>(count_ % ring_.size());
    for (std::size_t i = 0; i < n; i++)
        out.push_back(ring_[(first + i) % ring_.size()]);
    return out;
}

void
TraceSink::reset()
{
    count_ = 0;
    cycle_ = 0;
    activeClusters_ = 0;
    nextSample_ = 0;
    for (int side = 0; side < 2; side++) {
        for (int c = 0; c < maxUnits; c++) {
            iqOcc_[side][c] = 0;
            regOcc_[side][c] = 0;
        }
    }
    robOcc_ = 0;
    lsqOcc_ = 0;
    unitsSeen_ = 0;
    xferCount_ = 0;
    xferHops_ = 0;
    xferDelay_ = 0;
    series_.reset();
}

std::string
perfettoJson(const TraceSink &sink)
{
    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();

    // Process-name metadata so the timeline is labelled.
    w.beginObject()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", 0)
        .field("tid", 0);
    w.key("args").beginObject().field("name", "clustersim").endObject();
    w.endObject();

    char track[48];
    for (const TraceEvent &ev : sink.eventsInOrder()) {
        w.beginObject();
        if (isSampleKind(ev.kind)) {
            // Counter track. Per-cluster tracks get the cluster index
            // in the name; Perfetto keys counters by pid + name.
            switch (ev.kind) {
              case TraceEventKind::IqSample:
              case TraceEventKind::RegSample:
                std::snprintf(track, sizeof(track), "%s.c%u",
                              traceEventName(ev.kind), ev.unit);
                break;
              default:
                std::snprintf(track, sizeof(track), "%s",
                              traceEventName(ev.kind));
            }
            w.field("name", track)
                .field("ph", "C")
                .field("ts", ev.cycle)
                .field("pid", 0);
            w.key("args").beginObject();
            switch (ev.kind) {
              case TraceEventKind::IqSample:
              case TraceEventKind::RegSample:
                w.field("int", ev.arg);
                w.field("fp", static_cast<std::int64_t>(ev.aux));
                break;
              case TraceEventKind::LinkSample:
                w.field("transfers", ev.arg);
                w.field("hops", ev.aux);
                w.field("avg_delay", ev.val);
                break;
              default:
                w.field("value", ev.arg);
            }
            w.endObject();
        } else {
            // Discrete event: a global instant with its payload.
            w.field("name", traceEventName(ev.kind))
                .field("ph", "i")
                .field("s", "g")
                .field("ts", ev.cycle)
                .field("pid", 0)
                .field("tid", static_cast<int>(ev.unit));
            w.key("args").beginObject();
            w.field("arg", ev.arg);
            w.field("aux", ev.aux);
            w.field("val", ev.val);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace clustersim
