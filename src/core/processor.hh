/**
 * @file
 * The clustered out-of-order processor model (Section 2).
 *
 * Timing model. The simulator advances cycle by cycle for the in-order
 * stages (fetch, dispatch, commit) but evaluates the out-of-order
 * machinery *eagerly*: as soon as all of an instruction's input times
 * are known, its functional unit, network transfers, and cache accesses
 * are reserved (possibly at future cycles) and its completion time is
 * computed. Structural resources (FUs, network links, cache ports) are
 * cycle-slot reservers, so contention is modelled without a per-cycle
 * scheduler scan. The only state that must wait for simulated time is
 * disambiguation behind stores whose addresses are not yet computed.
 *
 * Misprediction model. The core is trace-driven; fetch stalls behind a
 * mispredicted branch until it resolves, then resumes after
 * cluster-to-front-end hops plus the redirect penalty and the front-end
 * refill depth (>= 12 cycles total, per Table 1).
 */

#ifndef CLUSTERSIM_CORE_PROCESSOR_HH
#define CLUSTERSIM_CORE_PROCESSOR_HH

#include <memory>
#include <vector>

#include "core/cluster.hh"
#include "core/event_queue.hh"
#include "core/fetch.hh"
#include "core/params.hh"
#include "core/rob.hh"
#include "core/snapshot_io.hh"
#include "core/steering.hh"
#include "interconnect/network.hh"
#include "memory/l1_cache.hh"
#include "memory/l2_cache.hh"
#include "memory/lsq.hh"
#include "memory/tlb.hh"
#include "predictor/bank_predictor.hh"
#include "predictor/criticality.hh"
#include "reconfig/controller.hh"

namespace clustersim {

/** Aggregate end-of-run statistics. */
struct ProcessorStats {
    Cycle cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t distantIssued = 0;
    std::uint64_t regTransfers = 0;   ///< cross-cluster operand moves
    std::uint64_t bankLookups = 0;
    std::uint64_t bankMispredicts = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t flushWritebacks = 0;
    // dispatch-stall accounting (cycles lost per cause)
    std::uint64_t stallIq = 0;     ///< no cluster had an IQ slot
    std::uint64_t stallReg = 0;    ///< no cluster had a free register
    std::uint64_t stallLsq = 0;    ///< LSQ full
    std::uint64_t stallRob = 0;    ///< ROB full
    std::uint64_t stallEmpty = 0;  ///< fetch queue empty (front end)
    double activeClusterSum = 0;      ///< integral of active clusters

    /**
     * Every statistic, by name: checkpoints carry them, and the
     * determinism tests compare them (see core/snapshot_io.hh).
     */
    template <class V>
    void
    fields(V &v)
    {
        v("cycles", cycles);
        v("committed", committed);
        v("committedBranches", committedBranches);
        v("mispredicts", mispredicts);
        v("loads", loads);
        v("stores", stores);
        v("distantIssued", distantIssued);
        v("regTransfers", regTransfers);
        v("bankLookups", bankLookups);
        v("bankMispredicts", bankMispredicts);
        v("reconfigurations", reconfigurations);
        v("flushWritebacks", flushWritebacks);
        v("stallIq", stallIq);
        v("stallReg", stallReg);
        v("stallLsq", stallLsq);
        v("stallRob", stallRob);
        v("stallEmpty", stallEmpty);
        v("activeClusterSum", activeClusterSum);
    }

    double ipc() const
    {
        return cycles ? static_cast<double>(committed) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double avgActiveClusters() const
    {
        return cycles ? activeClusterSum / static_cast<double>(cycles)
                      : 0.0;
    }
};

/** The processor. */
class Processor
{
  public:
    /**
     * @param cfg        Configuration (not copied lazily: stored).
     * @param trace      Committed-path instruction source (not owned).
     * @param controller Optional cluster-count controller (not owned).
     */
    Processor(const ProcessorConfig &cfg, TraceSource *trace,
              ReconfigController *controller = nullptr);
    ~Processor();

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /** Advance one cycle. */
    void step();

    /** Run until the given number of instructions has committed. */
    void run(std::uint64_t instructions);

    /** Reset statistics (for post-warmup measurement). */
    void resetStats();

    Cycle cycle() const { return cycle_; }
    std::uint64_t committed() const { return stats_.committed; }
    double ipc() const { return stats_.ipc(); }

    int activeClusters() const { return activeClusters_; }
    /** Directly set the active cluster count (used by tests). */
    void setActiveClusters(int n);

    // --- idle-skip introspection (tests and harnesses) --------------------
    /** Did the last step() perform any observable work? */
    bool lastStepIdle() const { return lastStepIdle_; }
    /**
     * Earliest cycle after an idle step at which any stage could do
     * observable work; neverCycle when nothing ever will (run() clamps
     * to the livelock budget so the no-commit panic still fires at the
     * identical cycle). Meaningful only right after an idle step.
     */
    Cycle nextBusyCycle() const;

    // --- checkpoint / restore ----------------------------------------------
    /**
     * Complete copy of the processor's dynamic state at one instant,
     * including the trace-source position and a clone of the attached
     * controller's runtime state. Defined after the class (it names
     * private nested types); move-only.
     */
    struct Snapshot;

    /**
     * Capture the current dynamic state. Requires a seekable trace
     * source (the snapshot records its position); the attached
     * controller, if any, must be clonable.
     */
    Snapshot snapshot() const;

    /**
     * Restore a snapshot previously taken from a processor with an
     * equal configuration and the same (or an identically generated)
     * trace stream. The trace source is seek()-ed to the recorded
     * position; the controller state is re-instated from the
     * snapshot's clone *without* re-attaching (attach() would reset
     * it). A snapshot may be restored any number of times.
     */
    void restore(const Snapshot &s);

    const ProcessorStats &stats() const { return stats_; }
    const ProcessorConfig &config() const { return cfg_; }
    const Network &network() const { return *network_; }
    const L1Cache &l1() const { return *l1_; }
    const L2Cache &l2() const { return *l2_; }
    const Tlb &dtlb() const { return dtlb_; }
    const FetchUnit &fetch() const { return *fetch_; }
    const LoadStoreQueue &lsq() const { return *lsq_; }
    const BankPredictor &bankPredictor() const { return bankPred_; }

  private:
    // --- pipeline stages (called youngest-first each cycle) ---------------
    // Stages report whether they did observable work so step() can tell
    // a fully idle cycle from a busy one (the idle-skip precondition).
    bool doCommit();
    bool retryPendingLoads();
    int doDispatch();
    void doFetch();
    bool applyReconfig();
    bool processIqEvents();

    // --- idle-cycle skipping ----------------------------------------------
    /** Arm retries for loads the LSQ woke since the last drain. */
    void armWokenLoads();
    /** Account for skip cycles that each stage would have idled through. */
    void skipIdleCycles(Cycle skip);

    // --- rename / value plumbing -----------------------------------------
    /** The ValueInfo currently mapped to a logical register. */
    ValueInfo &valueOf(RegIndex reg);
    /** Arrival time of a value in a cluster (schedules the transfer). */
    Cycle availIn(ValueInfo &v, int cluster);
    /** Resolve one source operand at dispatch. */
    void resolveSource(DynInst &inst, int idx, ValueInfo &v,
                       DynInst *prod);
    /** A source's ready time just became known. */
    void onSourceKnown(DynInst &inst, int idx);
    /** All compute inputs known: reserve FU and complete eagerly. */
    void scheduleExec(DynInst &inst);
    /** Address operand known: schedule address generation. */
    void scheduleAddrGen(DynInst &inst);
    /** Address generated: register with the LSQ, kick off access. */
    void addressReady(DynInst &inst);
    /** Try to issue a pending load to forward/cache. */
    bool tryLoad(DynInst &inst);
    /** Producer's completion time known: propagate to consumers. */
    void producerScheduled(DynInst &inst);
    /** Record completion and handle branch resolution. */
    void markComplete(DynInst &inst, Cycle when);

    /** Number of source operands the op class actually reads. */
    static int numSources(const MicroOp &op);
    /** Does this instruction occupy the fp issue queue? */
    static bool usesFpIq(const MicroOp &op);

    // --- configuration / substrates ----------------------------------------
    ProcessorConfig cfg_;
    TraceSource *trace_;
    ReconfigController *controller_;
    /** Controller clone installed by restore(); controller_ aliases it. */
    std::unique_ptr<ReconfigController> ownedController_;

    std::unique_ptr<Network> network_;
    std::unique_ptr<L2Cache> l2_;
    std::unique_ptr<L1Cache> l1_;
    std::unique_ptr<FetchUnit> fetch_;
    std::unique_ptr<LoadStoreQueue> lsq_;
    std::vector<std::unique_ptr<Cluster>> clusters_;
    Tlb dtlb_;
    BankPredictor bankPred_;
    CriticalityPredictor critPred_;

    ReorderBuffer rob_;

    // --- rename state -----------------------------------------------------
    /** Latest producer seq per logical register (0 = architectural). */
    std::array<InstSeqNum, numLogicalRegs> renameTable_;
    /** Architectural (committed) value per logical register. */
    std::array<ValueInfo, numLogicalRegs> archValues_;

    // --- dynamic state ------------------------------------------------------
    Cycle cycle_ = 0;
    int activeClusters_ = 0;
    int minClusters_ = 1;       ///< smallest viable active partition
    int pendingTarget_ = 0;     ///< decentralized reconfig in progress
    Cycle dispatchStallUntil_ = 0;

    /** Loads waiting for older-store disambiguation. */
    std::vector<InstSeqNum> pendingLoads_;
    /**
     * Pending loads whose retryArmed flag is set: a store resolution
     * changed their disambiguation inputs since their last check, so
     * the next retry pass must re-check them. Zero means every pending
     * load is guaranteed to fail its check and the pass is skipped.
     */
    int armedPending_ = 0;

    /**
     * Why dispatch made no progress on the last cycle it ran (the w==0
     * stall charge). Replayed in bulk over skipped idle cycles so the
     * stall counters match a step-every-cycle run exactly.
     */
    enum class StallCause { None, Empty, Rob, Lsq, Iq, Reg };
    StallCause lastDispatchStall_ = StallCause::None;

    /** Did the last step() perform any observable work? */
    bool lastStepIdle_ = false;

    /** IQ-release events, keyed by issue cycle. */
    struct IqEvent {
        InstSeqNum seq;
        int cluster;
        bool fp;

        template <class V>
        void
        fields(V &v, int clusters)
        {
            v.u64(seq);
            v.i64(cluster, 0, clusters - 1);
            v.boolean(fp);
        }
    };
    CalendarQueue<IqEvent> iqEvents_;

    ProcessorStats stats_;
};

/**
 * See Processor::snapshot(). Construction-time wiring (config,
 * topology, trace/L2 pointers) is excluded: a snapshot is only
 * restorable into a processor built from an equal configuration, which
 * reproduces that wiring. Everything that changes while stepping is
 * here, so restore() + run(k) is bit-identical to having continued the
 * original run for k instructions.
 */
struct Processor::Snapshot {
    FetchUnit::Snapshot fetch;
    Network::Snapshot network;
    L1Cache::Snapshot l1;
    L2Cache l2;
    LoadStoreQueue lsq;
    std::vector<Cluster> clusters;
    Tlb dtlb;
    BankPredictor bankPred;
    CriticalityPredictor critPred;
    ReorderBuffer rob;
    std::array<InstSeqNum, numLogicalRegs> renameTable;
    std::array<ValueInfo, numLogicalRegs> archValues;
    Cycle cycle = 0;
    int activeClusters = 0;
    int pendingTarget = 0;
    Cycle dispatchStallUntil = 0;
    std::vector<InstSeqNum> pendingLoads;
    int armedPending = 0;
    StallCause lastDispatchStall = StallCause::None;
    bool lastStepIdle = false;
    CalendarQueue<IqEvent> iqEvents;
    ProcessorStats stats;
    /** TraceSource::position() at capture time. */
    std::uint64_t tracePosition = 0;
    /** Clone of the attached controller's state; null when detached. */
    std::unique_ptr<ReconfigController> controller;

    /**
     * The serialized form (see core/snapshot_io.hh), read back *into* a
     * snapshot captured from a processor built with the same
     * configuration (the "donor"): config-sized containers keep their
     * shapes and are shape-verified, dynamic state is replaced, and
     * every restored index is bounded by the donor's own cluster and
     * L1 bank counts.
     */
    template <class V>
    void
    fields(V &v)
    {
        const int hw = static_cast<int>(clusters.size());
        const int banks = static_cast<int>(l1.ports.size());
        v.expect(snapshotFormatVersion);
        fetch.fields(v);
        network.fields(v);
        l1.fields(v);
        l2.fields(v);
        lsq.fields(v, banks);
        v.expect(clusters.size());
        for (Cluster &c : clusters)
            c.fields(v);
        dtlb.fields(v);
        bankPred.fields(v);
        critPred.fields(v);
        rob.fields(v, hw, banks);
        for (InstSeqNum &s : renameTable)
            v.u64(s);
        for (ValueInfo &val : archValues)
            val.fields(v, hw);
        v.u64(cycle);
        v.i64(activeClusters, 1, hw);
        v.i64(pendingTarget, 0, hw);
        v.u64(dispatchStallUntil);
        v.list(pendingLoads, static_cast<std::uint64_t>(rob.capacity()),
               [&](InstSeqNum &s) { v.u64(s); });
        v.i64(armedPending, 0,
              static_cast<std::int64_t>(pendingLoads.size()));
        v.u8(lastDispatchStall, static_cast<unsigned>(StallCause::Reg));
        v.boolean(lastStepIdle);
        iqEvents.fields(v, [&](IqEvent &ev) { ev.fields(v, hw); });
        stats.fields(v);
        v.u64(tracePosition);
        // The donor's clone (same factory as the stored one, by key
        // construction) receives the dynamic state; presence and name
        // must agree or the payload is from a different plan.
        v.expect(controller != nullptr);
        if (controller) {
            v.expect(controller->name());
            controller->checkpoint(v);
        }
    }
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_PROCESSOR_HH
