/**
 * @file
 * Abstract source of the committed-path instruction stream.
 */

#ifndef CLUSTERSIM_WORKLOAD_TRACE_SOURCE_HH
#define CLUSTERSIM_WORKLOAD_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>

#include "workload/isa.hh"

namespace clustersim {

class FieldReader;
class FieldWriter;

/**
 * A TraceSource produces the dynamic instruction stream along the
 * committed (correct) path. The core is trace-driven: wrong-path
 * instructions are not simulated; their cost appears as the modelled
 * branch misprediction redirect penalty.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next committed-path instruction. */
    virtual MicroOp next() = 0;

    /** Reset the stream to its initial state (deterministic replay). */
    virtual void reset() = 0;

    // --- checkpoint support -------------------------------------------------
    // A Processor::Snapshot records how many instructions its source
    // had produced, and restores the source to that point in one of
    // two ways:
    //  - by state: clone() copies the source with its dynamic state,
    //    the snapshot carries the copy and serializes it through
    //    checkpoint(), and restore() hands the state back to the live
    //    source. SyntheticWorkload restores this way, so a warm start
    //    resumes generation instead of regenerating the warmup.
    //  - by position: a seekable() source whose clone() is null is
    //    seek()-ed to the recorded position. ReplaySource restores this
    //    way; its stream is already materialized.
    // A source that does neither keeps the defaults, and snapshotting a
    // processor fed by it is rejected. Payloads differ by kind: one
    // taken from a state-restored source carries the state, and only a
    // processor fed by the same kind of source accepts it.

    /** Instructions produced since construction/reset. */
    virtual std::uint64_t position() const { return 0; }

    /**
     * A copy of this source, dynamic state included, at its current
     * position; null for a source restored by position.
     */
    virtual std::unique_ptr<TraceSource> clone() const { return nullptr; }

    /**
     * Write or read the dynamic state a clone carries, through the
     * source's one field list (core/snapshot_io.hh). The reader checks
     * every value against this source's own shapes, so a state from a
     * different stream fails the load instead of being adopted.
     */
    virtual void checkpoint(FieldWriter &) {}
    virtual void checkpoint(FieldReader &) {}

    /** Can position()/seek() restore this stream exactly? */
    virtual bool seekable() const { return false; }

    /**
     * Move the stream so the next() call returns the (pos+1)-th
     * instruction of the stream, exactly as if pos calls to next() had
     * been made after a reset(). Only valid on seekable sources.
     */
    virtual void seek(std::uint64_t pos) { (void)pos; }
};

} // namespace clustersim

#endif // CLUSTERSIM_WORKLOAD_TRACE_SOURCE_HH
