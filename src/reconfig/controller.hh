/**
 * @file
 * Reconfiguration controller interface.
 *
 * A controller observes the committed instruction stream (the paper's
 * algorithms run in software off hardware event counters) and exposes a
 * desired number of active clusters; the processor applies changes by
 * masking the steering heuristic (centralized cache) or by draining,
 * flushing, and remapping (decentralized cache).
 */

#ifndef CLUSTERSIM_RECONFIG_CONTROLLER_HH
#define CLUSTERSIM_RECONFIG_CONTROLLER_HH

#include <memory>
#include <string>

#include "common/types.hh"
#include "core/snapshot_io.hh"
#include "workload/isa.hh"

namespace clustersim {

/** Per-committed-instruction information visible to controllers. */
struct CommitEvent {
    Addr pc = 0;
    OpClass op = OpClass::IntAlu;
    bool distant = false; ///< issued >= distantDepth younger than head
    Cycle cycle = 0;      ///< commit cycle
    /** Mispredicted branch (fetch stalled behind it until resolve). */
    bool mispredicted = false;
};

/**
 * The paper's branch/memref phase test: two interval counts differ
 * significantly when they are more than `significance` apart, compared
 * in double so fractional thresholds (interval / metric_divisor for a
 * non-integral quotient) are honoured exactly rather than truncated.
 * Shared by the interval controllers and the offline instability
 * analysis in sim/phase_stats so the online and offline phase tests
 * cannot drift apart.
 */
inline bool
metricDiffers(std::uint64_t a, std::uint64_t b, double significance)
{
    double diff = a >= b ? static_cast<double>(a - b)
                         : static_cast<double>(b - a);
    return diff > significance;
}

/** Base class for cluster-count controllers. */
class ReconfigController
{
  public:
    virtual ~ReconfigController() = default;

    /**
     * Called once when attached to a processor.
     * @param hw_clusters Hardware cluster count.
     * @param initial     Initially active clusters.
     */
    virtual void attach(int hw_clusters, int initial);

    /** Observe one committed instruction. */
    virtual void onCommit(const CommitEvent &ev) = 0;

    /** Desired number of active clusters. */
    virtual int targetClusters() const = 0;

    /** Controller name for reports. */
    virtual std::string name() const = 0;

    /**
     * Deep-copy this controller, *including* its accumulated runtime
     * state (interval counters, exploration phase, history tables).
     * Used by Processor snapshots: a restore re-instates the cloned
     * post-warmup controller state rather than re-attaching a fresh
     * one. Returns nullptr when the controller is not clonable, which
     * makes the owning processor non-snapshotable.
     */
    virtual std::unique_ptr<ReconfigController> clone() const
    {
        return nullptr;
    }

    /**
     * Write or read the controller's *dynamic* state (interval
     * counters, exploration phase, history tables) for on-disk
     * checkpoints. Config-derived members (params, candidate lists,
     * hwClusters_) are reproduced by constructing the controller from
     * the run plan and attaching it, so they are deliberately not
     * visited. Stateless controllers (e.g. StaticController) need not
     * override; stateful ones derive from CheckpointedController.
     */
    virtual void checkpoint(FieldWriter &) {}
    virtual void checkpoint(FieldReader &) {}

  protected:
    int hwClusters_ = 16;
};

/**
 * Base of every controller with dynamic state: routes both checkpoint()
 * hooks to Derived::fields(), the one list of that state (see
 * core/snapshot_io.hh).
 */
template <class Derived>
class CheckpointedController : public ReconfigController
{
  public:
    void
    checkpoint(FieldWriter &v) override
    {
        static_cast<Derived &>(*this).fields(v);
    }

    void
    checkpoint(FieldReader &v) override
    {
        static_cast<Derived &>(*this).fields(v);
    }
};

/** Fixed-configuration controller (the static base cases). */
class StaticController : public ReconfigController
{
  public:
    explicit StaticController(int clusters) : clusters_(clusters) {}

    void onCommit(const CommitEvent &) override {}
    int targetClusters() const override { return clusters_; }
    std::string
    name() const override
    {
        return "static-" + std::to_string(clusters_);
    }

    std::unique_ptr<ReconfigController>
    clone() const override
    {
        return std::make_unique<StaticController>(*this);
    }

  private:
    int clusters_;
};

} // namespace clustersim

#endif // CLUSTERSIM_RECONFIG_CONTROLLER_HH
