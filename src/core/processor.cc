#include "core/processor.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"
#include "trace/observer.hh"

// simlint: hot-path

namespace clustersim {

namespace {

std::unique_ptr<Topology>
buildTopology(const ProcessorConfig &cfg)
{
    if (cfg.interconnect == InterconnectKind::Grid)
        return makeGrid(cfg.numClusters);
    return makeRing(cfg.numClusters);
}

} // namespace

// simlint: cold-begin -- construction allocates every pooled buffer

Processor::Processor(const ProcessorConfig &cfg, TraceSource *trace,
                     ReconfigController *controller)
    : cfg_(cfg), trace_(trace), controller_(controller),
      dtlb_(),
      bankPred_(1024, 4096, maxClusters),
      critPred_(8192),
      rob_(cfg.robSize)
{
    CSIM_ASSERT(trace_, "processor needs a trace source");
    CSIM_ASSERT(cfg_.numClusters >= 1 &&
                cfg_.numClusters <= maxClusters,
                "cluster count out of range");

    network_ = std::make_unique<Network>(buildTopology(cfg_),
                                         cfg_.hopLatency);
    l2_ = std::make_unique<L2Cache>(cfg_.l2);
    l1_ = std::make_unique<L1Cache>(cfg_.l1, cfg_.numClusters, l2_.get());
    fetch_ = std::make_unique<FetchUnit>(cfg_, trace_, l2_.get());
    lsq_ = std::make_unique<LoadStoreQueue>(cfg_.l1.decentralized,
                                            cfg_.numClusters,
                                            cfg_.lsqPerCluster);
    for (int c = 0; c < cfg_.numClusters; c++) {
        clusters_.push_back(std::make_unique<Cluster>(
            c, cfg_.cluster, cfg_.fuLat));
    }

    // Every in-flight load occupies a ROB slot, so the pending-load
    // list can never outgrow the ROB; reserving here keeps the
    // steady-state push_back in addressReady() allocation-free.
    pendingLoads_.reserve(static_cast<std::size_t>(cfg_.robSize));

    renameTable_.fill(0);
    for (auto &v : archValues_)
        v = ValueInfo::initial();

    CSIM_OBSERVE(onConfigure(cfg_, network_->maxHops()));

    // Partitions too small to hold the architectural registers can
    // never make forward progress (committed mappings alone exhaust
    // the regfile), so reject them up front instead of livelocking.
    minClusters_ = minViableClusters(cfg_.cluster);
    CSIM_ASSERT(cfg_.numClusters >= minClusters_,
                "register files too small for architectural state");
    activeClusters_ = cfg_.activeClustersAtReset > 0
        ? std::min(cfg_.activeClustersAtReset, cfg_.numClusters)
        : cfg_.numClusters;
    CSIM_ASSERT(activeClusters_ >= minClusters_,
                "active partition cannot hold architectural registers");
    if (controller_) {
        controller_->attach(cfg_.numClusters, activeClusters_);
        activeClusters_ = std::clamp(controller_->targetClusters(),
                                     minClusters_, cfg_.numClusters);
    }
}

Processor::~Processor() = default;

// simlint: cold-end

int
Processor::numSources(const MicroOp &op)
{
    int n = 0;
    if (op.src1 != invalidReg)
        n++;
    if (op.src2 != invalidReg)
        n++;
    return n;
}

bool
Processor::usesFpIq(const MicroOp &op)
{
    return op.isFp();
}

void
Processor::setActiveClusters(int n)
{
    CSIM_ASSERT(n >= minClusters_ && n <= cfg_.numClusters);
    activeClusters_ = n;
}

void
Processor::step()
{
    cycle_++;
    CSIM_OBSERVE(onCycleBegin(cycle_, activeClusters_));
    bool events = processIqEvents();
    bool committed = doCommit();
    bool retried = retryPendingLoads();
    int dispatched = doDispatch();
    std::uint64_t fetch_before = fetch_->fetched() + fetch_->icacheMisses();
    doFetch();
    bool fetched =
        fetch_->fetched() + fetch_->icacheMisses() != fetch_before;
    bool reconfigured = applyReconfig();
    stats_.cycles++;
    stats_.activeClusterSum += activeClusters_;
    CSIM_OBSERVE(onCycleEnd(activeClusters_));
    lastStepIdle_ = !events && !committed && !retried &&
                    dispatched == 0 && !fetched && !reconfigured;
}

void
Processor::run(std::uint64_t instructions)
{
    // The longest legitimate commit gap is a reconfiguration drain plus
    // a full L1 flush (a few thousand cycles); far beyond that, the
    // machine has wedged and continuing would hang the caller.
    constexpr Cycle livelockBudget = 100000;
    std::uint64_t goal = stats_.committed + instructions;
    std::uint64_t last = stats_.committed;
    Cycle lastProgress = cycle_;
    while (stats_.committed < goal) {
        step();
        if (stats_.committed != last) {
            last = stats_.committed;
            lastProgress = cycle_;
        } else if (cycle_ - lastProgress > livelockBudget) {
            CSIM_PANIC("no commit in ", livelockBudget,
                       " cycles (committed ", stats_.committed, " of ",
                       goal, ", cycle ", cycle_, "): livelock");
        }
        // After a provably idle cycle, jump straight to the next cycle
        // at which any stage can act. Every simulated outcome is
        // identical to stepping (docs/PERF.md has the argument); only
        // wall-clock changes. The jump never crosses the livelock
        // horizon, so the panic above still fires at the same cycle a
        // stepping run would report.
        if (cfg_.idleSkip && lastStepIdle_ && stats_.committed < goal) {
            Cycle next = nextBusyCycle();
            Cycle cap = lastProgress + livelockBudget + 1;
            if (next > cap)
                next = cap;
            if (next > cycle_ + 1)
                skipIdleCycles(next - cycle_ - 1);
        }
    }
}

Cycle
Processor::nextBusyCycle() const
{
    // A woken or still-armed pending load is retried next cycle.
    if (lsq_->hasWokenLoads() || armedPending_ > 0)
        return cycle_ + 1;

    Cycle next = neverCycle;
    auto consider = [&next](Cycle c) {
        if (c < next)
            next = c;
    };

    // IQ-release events (the only source of in-flight completions'
    // side effects during an idle window).
    consider(iqEvents_.nextEventCycle());

    // Commit: the head's completion cycle is known once completed; an
    // incomplete head only completes through cascades on busy cycles.
    if (!rob_.empty() && rob_.head().completed)
        consider(std::max(rob_.head().completeCycle, cycle_ + 1));

    // Dispatch. With a reconfiguration pending, dispatch is gated until
    // the drain finishes, which only commits (covered above) advance.
    if (pendingTarget_ == 0) {
        if (cycle_ < dispatchStallUntil_) {
            consider(dispatchStallUntil_);
        } else if (!fetch_->queueEmpty() &&
                   cycle_ < fetch_->front().readyAt) {
            consider(fetch_->front().readyAt);
        } else if (!fetch_->queueEmpty() &&
                   lastDispatchStall_ == StallCause::None) {
            // Dispatch saw a ready instruction, made no progress, and
            // charged no stall cause; be conservative and step.
            return cycle_ + 1;
        }
        // Rob/Lsq/Reg stalls clear at commit (covered above); an Iq
        // stall clears at an IQ-release event (covered above); an Empty
        // stall clears when fetch enqueues (covered below).
    }

    // Fetch (neverCycle while branch-stalled or queue-full: both end
    // on busy cycles).
    consider(fetch_->nextActiveCycle(cycle_ + 1));

    return next;
}

void
Processor::skipIdleCycles(Cycle skip)
{
    // Each skipped cycle would have repeated the just-observed idle
    // step exactly: same active-cluster count, same single dispatch
    // stall charge, no other counter movement.
    cycle_ += skip;
    stats_.cycles += skip;
    stats_.activeClusterSum +=
        static_cast<double>(activeClusters_) * static_cast<double>(skip);
    switch (lastDispatchStall_) {
      case StallCause::Empty: stats_.stallEmpty += skip; break;
      case StallCause::Rob:   stats_.stallRob += skip; break;
      case StallCause::Lsq:   stats_.stallLsq += skip; break;
      case StallCause::Iq:    stats_.stallIq += skip; break;
      case StallCause::Reg:   stats_.stallReg += skip; break;
      case StallCause::None:  break;
    }
    CSIM_OBSERVE(onIdleSkip(cycle_, activeClusters_));
}

void
Processor::resetStats()
{
    stats_ = ProcessorStats{};
    fetch_->resetStats();
    network_->resetStats();
    l1_->resetStats();
    l2_->resetStats();
    lsq_->resetStats();
    dtlb_.resetStats();
    bankPred_.resetStats();
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------
// simlint: cold-begin -- snapshot capture/restore copies whole subsystems

// A Snapshot copies every subsystem by value; these assertions document
// (and enforce) that the copied types stay value-semantic. Growing a
// pointer member in one of them requires teaching snapshot()/restore()
// about it explicitly.
static_assert(std::is_copy_assignable_v<L2Cache>);
static_assert(std::is_copy_assignable_v<LoadStoreQueue>);
static_assert(std::is_copy_assignable_v<Cluster>);
static_assert(std::is_copy_assignable_v<Tlb>);
static_assert(std::is_copy_assignable_v<BankPredictor>);
static_assert(std::is_copy_assignable_v<CriticalityPredictor>);
static_assert(std::is_copy_assignable_v<ReorderBuffer>);
static_assert(std::is_copy_assignable_v<CacheBank>);
static_assert(std::is_copy_assignable_v<BranchUnit>);

Processor::Snapshot
Processor::snapshot() const
{
    std::unique_ptr<TraceSource> src = trace_->clone();
    CSIM_ASSERT(src || trace_->seekable(),
                "snapshot requires a clonable or seekable trace source");
    std::unique_ptr<ReconfigController> ctrl;
    if (controller_) {
        ctrl = controller_->clone();
        CSIM_ASSERT(ctrl != nullptr,
                    "snapshot requires a clonable controller: ",
                    controller_->name());
    }

    Snapshot s{fetch_->snapshot(),
               network_->snapshot(),
               l1_->snapshot(),
               *l2_,
               *lsq_,
               {},
               dtlb_,
               bankPred_,
               critPred_,
               rob_,
               renameTable_,
               archValues_,
               cycle_,
               activeClusters_,
               pendingTarget_,
               dispatchStallUntil_,
               pendingLoads_,
               armedPending_,
               lastDispatchStall_,
               lastStepIdle_,
               iqEvents_,
               stats_,
               trace_->position(),
               std::move(src),
               std::move(ctrl)};
    s.clusters.reserve(clusters_.size());
    for (const auto &c : clusters_)
        s.clusters.push_back(*c);
    return s;
}

void
Processor::restore(const Snapshot &s)
{
    CSIM_ASSERT(s.source || trace_->seekable(),
                "restore requires a seekable trace source");
    CSIM_ASSERT(s.clusters.size() == clusters_.size(),
                "snapshot from a different cluster count");

    // Sequence numbers rewind with the state; an attached invariant
    // checker must not read that as an ordering violation.
    CSIM_OBSERVE(onStreamRebase());

    fetch_->restore(s.fetch);
    network_->restore(s.network);
    l1_->restore(s.l1);
    *l2_ = s.l2;
    *lsq_ = s.lsq;
    for (std::size_t i = 0; i < clusters_.size(); ++i)
        *clusters_[i] = s.clusters[i];
    dtlb_ = s.dtlb;
    bankPred_ = s.bankPred;
    critPred_ = s.critPred;
    rob_ = s.rob;
    renameTable_ = s.renameTable;
    archValues_ = s.archValues;
    cycle_ = s.cycle;
    activeClusters_ = s.activeClusters;
    pendingTarget_ = s.pendingTarget;
    dispatchStallUntil_ = s.dispatchStallUntil;
    pendingLoads_ = s.pendingLoads;
    pendingLoads_.reserve(static_cast<std::size_t>(cfg_.robSize));
    armedPending_ = s.armedPending;
    lastDispatchStall_ = s.lastDispatchStall;
    lastStepIdle_ = s.lastStepIdle;
    iqEvents_ = s.iqEvents;
    stats_ = s.stats;
    if (s.source) {
        // Hand the captured state to the live source through its one
        // field list; the reader checks it against the live source's
        // shapes.
        FieldWriter writer;
        s.source->checkpoint(writer);
        const std::string state = writer.take();
        FieldReader reader(state);
        trace_->checkpoint(reader);
        CSIM_ASSERT(reader.atEnd(),
                    "snapshot's source state does not fit the trace source");
    } else {
        trace_->seek(s.tracePosition);
    }

    // Re-instate the controller's captured runtime state. attach() is
    // deliberately NOT called: it would reset the controller, while the
    // clone already carries its post-capture (e.g. post-warmup) state.
    if (s.controller) {
        ownedController_ = s.controller->clone();
        controller_ = ownedController_.get();
    } else {
        ownedController_.reset();
        controller_ = nullptr;
    }
}

// simlint: cold-end

// ---------------------------------------------------------------------------
// Rename / value plumbing
// ---------------------------------------------------------------------------

ValueInfo &
Processor::valueOf(RegIndex reg)
{
    InstSeqNum pseq = renameTable_[static_cast<std::size_t>(reg)];
    if (pseq != 0) {
        DynInst *prod = rob_.find(pseq);
        if (prod)
            return prod->value;
    }
    return archValues_[static_cast<std::size_t>(reg)];
}

Cycle
Processor::availIn(ValueInfo &v, int cluster)
{
    CSIM_ASSERT(v.completeAt != neverCycle,
                "availIn on an unscheduled value");
    if (cfg_.freeRegComm || cluster == v.cluster)
        return v.completeAt;
    Cycle &slot = v.availAt[static_cast<std::size_t>(cluster)];
    if (slot != neverCycle)
        return slot;
    Cycle start = std::max(v.completeAt, cycle_);
    slot = network_->schedule(v.cluster, cluster, start);
    stats_.regTransfers++;
    return slot;
}

void
Processor::resolveSource(DynInst &inst, int idx, ValueInfo &v,
                         DynInst *prod)
{
    // v/prod were looked up by the dispatch affinity pass (valueOf
    // semantics); both stay valid across the intervening ROB allocate,
    // which only recycles retired slots.
    inst.srcProducerPc[static_cast<std::size_t>(idx)] = v.producerPc;
    if (v.completeAt == neverCycle) {
        // Producer still unscheduled: wait for its wakeup.
        prod->waiters.push_back({inst.seq, idx});
        inst.pendingSrcs++;
        inst.srcReady[static_cast<std::size_t>(idx)] = neverCycle;
    } else {
        inst.srcReady[static_cast<std::size_t>(idx)] =
            availIn(v, inst.cluster);
    }
}

void
Processor::onSourceKnown(DynInst &inst, int idx)
{
    const MicroOp &op = inst.op;
    if (op.isLoad()) {
        if (idx == 0)
            scheduleAddrGen(inst);
        return;
    }
    if (op.isStore()) {
        if (idx == 1) {
            scheduleAddrGen(inst);
        } else {
            inst.storeDataAt = inst.srcReady[0];
            lsq_->setStoreData(inst.seq, inst.storeDataAt);
            if (inst.addrReadyAt != neverCycle && !inst.completed) {
                markComplete(inst, std::max(inst.addrReadyAt,
                                            inst.storeDataAt));
            }
        }
        return;
    }
    if (inst.pendingSrcs == 0 && !inst.issueScheduled)
        scheduleExec(inst);
}

void
Processor::scheduleExec(DynInst &inst)
{
    Cluster &cl = *clusters_[static_cast<std::size_t>(inst.cluster)];
    Cycle ready = inst.enterIqCycle + 1;
    for (int s = 0; s < 2; s++) {
        if (inst.srcReady[static_cast<std::size_t>(s)] != neverCycle) {
            ready = std::max(ready,
                             inst.srcReady[static_cast<std::size_t>(s)]);
        }
    }

    Cycle issue = cl.reserveFu(inst.op.op, ready);
    inst.issueCycle = issue;
    inst.issueScheduled = true;
    iqEvents_.push(issue, {inst.seq, inst.cluster, usesFpIq(inst.op)});

    // Criticality training: the later-arriving operand's producer was
    // critical for this instruction.
    Addr pc0 = inst.srcProducerPc[0];
    Addr pc1 = inst.srcProducerPc[1];
    if (pc0 && pc1 && inst.srcReady[0] != inst.srcReady[1]) {
        bool first_later = inst.srcReady[0] > inst.srcReady[1];
        critPred_.train(first_later ? pc0 : pc1, true);
        critPred_.train(first_later ? pc1 : pc0, false);
    }

    Cycle done = issue + cl.latency(inst.op.op);
    markComplete(inst, done);
    if (inst.op.dest != invalidReg)
        producerScheduled(inst);
}

void
Processor::scheduleAddrGen(DynInst &inst)
{
    if (inst.addrGenScheduled)
        return;
    inst.addrGenScheduled = true;

    Cluster &cl = *clusters_[static_cast<std::size_t>(inst.cluster)];
    int addr_idx = inst.op.isStore() ? 1 : 0;
    Cycle src = inst.srcReady[static_cast<std::size_t>(addr_idx)];
    Cycle ready = std::max(inst.enterIqCycle + 1,
                           src == neverCycle ? 0 : src);

    Cycle issue = cl.reserveFu(OpClass::IntAlu, ready);
    inst.issueCycle = issue;
    inst.issueScheduled = true;
    iqEvents_.push(issue, {inst.seq, inst.cluster, false});

    Cycle addr_done = issue + 1 + dtlb_.translate(inst.op.effAddr);
    inst.addrReadyAt = addr_done;
    addressReady(inst);
}

void
Processor::addressReady(DynInst &inst)
{
    const MicroOp &op = inst.op;
    Cycle addr_done = inst.addrReadyAt;

    if (!cfg_.l1.decentralized) {
        inst.bank = l1_->bankFor(op.effAddr, cfg_.l1.banks);
        Cycle at_lsq = cfg_.freeMemComm
            ? addr_done
            : network_->schedule(inst.cluster, 0, addr_done);
        inst.addrAtBankAt = at_lsq;
        lsq_->setAddress(inst.seq, op.effAddr, inst.bank, at_lsq,
                         at_lsq);
    } else {
        int bank = l1_->bankFor(op.effAddr, activeClusters_);
        bankPred_.update(op.pc, static_cast<int>((op.effAddr >> 3) %
                                                 maxClusters));
        if (inst.predictedBank >= 0) {
            stats_.bankLookups++;
            bool ok = inst.predictedBank == bank;
            bankPred_.recordOutcome(ok);
            if (!ok)
                stats_.bankMispredicts++;
        }
        inst.bank = bank;

        Cycle at_bank = (bank == inst.cluster || cfg_.freeMemComm)
            ? addr_done
            : network_->schedule(inst.cluster, bank, addr_done);
        inst.addrAtBankAt = at_bank;

        Cycle bcast = at_bank;
        if (op.isStore() && !cfg_.freeMemComm &&
            !cfg_.perfectBankPred) {
            for (int k = 0; k < activeClusters_; k++) {
                if (k == inst.cluster)
                    continue;
                bcast = std::max(bcast, network_->schedule(
                    inst.cluster, k, addr_done));
            }
        }
        lsq_->setAddress(inst.seq, op.effAddr, bank, at_bank, bcast);
    }

    if (op.isLoad()) {
        if (!tryLoad(inst))
            pendingLoads_.push_back(inst.seq);
    } else if (inst.storeDataAt != neverCycle && !inst.completed) {
        markComplete(inst, std::max(inst.addrReadyAt, inst.storeDataAt));
    }
}

bool
Processor::tryLoad(DynInst &inst)
{
    LoadCheckResult res = lsq_->checkLoad(inst.seq);
    if (res.status == LoadCheck::BlockedOlderStore ||
        res.status == LoadCheck::WaitStoreData) {
        // Park the load on the store that blocked it; the LSQ wakes it
        // when that store's address (Blocked) or data (WaitStoreData)
        // resolves, and nothing else can change the verdict.
        lsq_->addLoadWaiter(res.blockerSeq, inst.seq);
        return false;
    }

    Cycle complete;
    bool decentralized = cfg_.l1.decentralized;
    int home = decentralized ? inst.bank : 0;

    if (res.status == LoadCheck::Forward) {
        // Forward from the store's cluster through the LSQ/bank.
        Cycle data = res.readyCycle;
        if (cfg_.freeMemComm) {
            complete = data + 1;
        } else {
            Cycle at_home = res.srcCluster == home
                ? data
                : network_->schedule(res.srcCluster, home, data);
            Cycle done = std::max(at_home, inst.addrAtBankAt) + 1;
            complete = home == inst.cluster
                ? done
                : network_->schedule(home, inst.cluster, done);
        }
    } else {
        Cycle start = std::max(res.readyCycle, inst.addrAtBankAt);
        Cycle l2_hops = (decentralized && !cfg_.freeMemComm)
            ? network_->latency(home, 0)
            : 0;
        Cycle done = l1_->access(inst.op.effAddr, false, start,
                                 inst.bank, l2_hops);
        complete = (home == inst.cluster || cfg_.freeMemComm)
            ? done
            : network_->schedule(home, inst.cluster, done);
    }

    lsq_->markAccessed(inst.seq);
    markComplete(inst, complete);
    if (inst.op.dest != invalidReg)
        producerScheduled(inst);
    return true;
}

void
Processor::producerScheduled(DynInst &inst)
{
    ValueInfo &v = inst.value;
    v.completeAt = inst.completeCycle;
    v.availAt[static_cast<std::size_t>(inst.cluster)] =
        inst.completeCycle;
    for (const Waiter &w : inst.waiters) {
        DynInst *consumer = rob_.find(w.consumer);
        CSIM_ASSERT(consumer, "waiter vanished");
        consumer->srcReady[static_cast<std::size_t>(w.srcIdx)] =
            availIn(v, consumer->cluster);
        consumer->pendingSrcs--;
        onSourceKnown(*consumer, w.srcIdx);
    }
    inst.waiters.clear();
}

void
Processor::markComplete(DynInst &inst, Cycle when)
{
    CSIM_ASSERT(!inst.completed, "completed twice");
    inst.completeCycle = when;
    inst.completed = true;
    if (inst.mispredicted) {
        // Fetch resumes after the redirect travels back to the front
        // end; the front-end refill depth adds the rest of the penalty.
        Cycle resume = when + network_->latency(inst.cluster, 0) +
                       cfg_.redirectPenalty;
        fetch_->resumeAt(resume);
    }
}

// ---------------------------------------------------------------------------
// Per-cycle stages
// ---------------------------------------------------------------------------

bool
Processor::processIqEvents()
{
    bool any = false;
    // Same-cycle events are delivered FIFO instead of in heap order;
    // that is unobservable (iqRelease is a commutative counter
    // decrement, and headSeq is fixed for the whole drain since commit
    // runs after this stage).
    iqEvents_.drainUntil(cycle_, [&](const IqEvent &ev) {
        any = true;
        clusters_[static_cast<std::size_t>(ev.cluster)]->iqRelease(ev.fp);
        DynInst *inst = rob_.find(ev.seq);
        if (inst) {
            inst->distant = (ev.seq - rob_.headSeq()) >=
                static_cast<InstSeqNum>(cfg_.distantDepth);
            if (inst->distant)
                stats_.distantIssued++;
        }
    });
    return any;
}

bool
Processor::doCommit()
{
    bool any = false;
    for (int w = 0; w < cfg_.commitWidth; w++) {
        if (rob_.empty())
            break;
        DynInst &head = rob_.head();
        if (!head.completed || head.completeCycle > cycle_)
            break;
        CSIM_OBSERVE(onCommit(head, cycle_));

        const MicroOp &op = head.op;
        if (op.dest != invalidReg) {
            if (head.prevDestHadReg) {
                clusters_[static_cast<std::size_t>(
                    head.prevDestCluster)]->regRelease(isFpReg(op.dest));
            }
            archValues_[static_cast<std::size_t>(op.dest)] = head.value;
        }

        if (op.isMem()) {
            if (op.isStore()) {
                Cycle hops = (cfg_.l1.decentralized && !cfg_.freeMemComm)
                    ? network_->latency(head.bank, 0)
                    : 0;
                l1_->access(op.effAddr, true, cycle_, head.bank, hops);
            }
            lsq_->release(head.seq);
        }

        if (op.isControl()) {
            stats_.committedBranches++;
            if (head.mispredicted)
                stats_.mispredicts++;
        }

        if (controller_)
            controller_->onCommit({op.pc, op.op, head.distant, cycle_,
                                   op.isControl() && head.mispredicted});

        stats_.committed++;
        rob_.retireHead();
        any = true;
    }
    return any;
}

void
Processor::armWokenLoads()
{
    if (!lsq_->hasWokenLoads())
        return;
    for (InstSeqNum seq : lsq_->wokenLoads()) {
        DynInst *inst = rob_.find(seq);
        CSIM_ASSERT(inst, "woken load vanished");
        if (!inst->retryArmed) {
            inst->retryArmed = true;
            armedPending_++;
        }
    }
    lsq_->clearWokenLoads();
}

bool
Processor::retryPendingLoads()
{
    // A pending load's verdict can change only when a store it reported
    // as its blocker resolves (address or data), which lands it on the
    // LSQ's woken list; everything else is guaranteed to fail its check
    // again, so only armed loads are re-checked. The scan order and
    // swap-removal are identical to checking every pending load, so the
    // successful checks happen in exactly the same sequence.
    armWokenLoads();
    if (armedPending_ == 0)
        return false;
    bool any = false;
    for (std::size_t i = 0; i < pendingLoads_.size();) {
        if (armedPending_ == 0)
            break;
        DynInst *inst = rob_.find(pendingLoads_[i]);
        CSIM_ASSERT(inst, "pending load vanished");
        if (!inst->retryArmed) {
            i++;
            continue;
        }
        inst->retryArmed = false;
        armedPending_--;
        any = true;
        if (tryLoad(*inst)) {
            pendingLoads_[i] = pendingLoads_.back();
            pendingLoads_.pop_back();
        } else {
            i++;
        }
        // A successful retry can cascade (a dependent store's address
        // resolves, waking further loads): arm them now so a load later
        // in this scan is retried this cycle, and one already passed
        // stays armed for the next cycle — exactly the schedule a full
        // rescan would produce.
        armWokenLoads();
    }
    return any;
}

int
Processor::doDispatch()
{
    lastDispatchStall_ = StallCause::None;
    if (cycle_ < dispatchStallUntil_ || pendingTarget_ != 0)
        return 0;

    int dispatched = 0;
    for (int w = 0; w < cfg_.dispatchWidth; w++) {
        if (fetch_->queueEmpty()) {
            if (w == 0) {
                stats_.stallEmpty++;
                lastDispatchStall_ = StallCause::Empty;
            }
            break;
        }
        if (rob_.full()) {
            if (w == 0) {
                stats_.stallRob++;
                lastDispatchStall_ = StallCause::Rob;
            }
            break;
        }
        const FetchEntry &fe = fetch_->front();
        if (cycle_ < fe.readyAt) {
            if (w == 0) {
                stats_.stallEmpty++;
                lastDispatchStall_ = StallCause::Empty;
            }
            break;
        }
        const MicroOp &op = fe.op;

        bool fp_iq = usesFpIq(op);
        bool has_dest = op.dest != invalidReg;
        bool dest_fp = has_dest && isFpReg(op.dest);
        bool is_mem = op.isMem();

        // Centralized LSQ / distributed store slots gate dispatch as a
        // whole; distributed load slots restrict the cluster choice.
        if (is_mem && !lsq_->distributed() &&
            !lsq_->canAllocate(op.isStore(), 0, activeClusters_)) {
            if (w == 0) {
                stats_.stallLsq++;
                lastDispatchStall_ = StallCause::Lsq;
            }
            break;
        }
        if (is_mem && lsq_->distributed() && op.isStore() &&
            !lsq_->canAllocate(true, 0, activeClusters_)) {
            if (w == 0) {
                stats_.stallLsq++;
                lastDispatchStall_ = StallCause::Lsq;
            }
            break;
        }

        SteerContext ctx;
        for (int c = 0; c < activeClusters_; c++) {
            Cluster &cl = *clusters_[static_cast<std::size_t>(c)];
            if (!cl.iqHasSpace(fp_iq))
                continue;
            if (has_dest && !cl.regHasSpace(dest_fp))
                continue;
            if (is_mem && lsq_->distributed() && !op.isStore() &&
                !lsq_->canAllocate(false, c, activeClusters_))
                continue;
            ctx.feasibleMask |= 1u << c;
        }
        if (ctx.feasibleMask == 0) {
            if (w == 0) {
                bool any_iq = false;
                for (int c = 0; c < activeClusters_; c++) {
                    if (clusters_[static_cast<std::size_t>(c)]
                            ->iqHasSpace(fp_iq))
                        any_iq = true;
                }
                if (!any_iq) {
                    stats_.stallIq++;
                    lastDispatchStall_ = StallCause::Iq;
                } else {
                    stats_.stallReg++;
                    lastDispatchStall_ = StallCause::Reg;
                }
            }
            break;
        }

        // Operand affinity inputs. The producer lookup (valueOf
        // semantics, with the producing DynInst kept alongside) is
        // shared with the rename pass below: the intervening ROB
        // allocate only recycles retired slots, so the pointers stay
        // valid and the second lookup would be pure repetition.
        RegIndex srcs[2] = {op.src1, op.src2};
        ValueInfo *srcVal[2] = {nullptr, nullptr};
        DynInst *srcProd[2] = {nullptr, nullptr};
        for (int s = 0; s < 2; s++) {
            if (srcs[s] == invalidReg)
                continue;
            InstSeqNum pseq =
                renameTable_[static_cast<std::size_t>(srcs[s])];
            DynInst *prod = pseq ? rob_.find(pseq) : nullptr;
            srcProd[s] = prod;
            ValueInfo &v = prod
                ? prod->value
                : archValues_[static_cast<std::size_t>(srcs[s])];
            srcVal[s] = &v;
            if (v.producer != 0) {
                ctx.srcCluster[s] = v.cluster;
                ctx.srcCritical[s] = critPred_.isCritical(v.producerPc);
            }
        }

        if (is_mem && cfg_.l1.decentralized) {
            ctx.predictedBank = cfg_.perfectBankPred
                ? static_cast<int>((op.effAddr >> 3) %
                      static_cast<std::uint64_t>(activeClusters_))
                : bankPred_.predict(op.pc) % activeClusters_;
        }

        int cluster = pickCluster(ctx, clusters_, activeClusters_,
                                  cfg_.loadBalanceThreshold);
        if (cluster == invalidCluster)
            break;

        // --- allocate -------------------------------------------------------
        DynInst &inst = rob_.allocate(op);
        inst.cluster = cluster;
        inst.fetchCycle = fe.readyAt - cfg_.frontEndDepth;
        inst.dispatchCycle = cycle_;
        inst.enterIqCycle = cycle_ + network_->latency(0, cluster);
        inst.mispredicted = fe.mispredicted;
        inst.predictedBank = ctx.predictedBank;

        Cluster &cl = *clusters_[static_cast<std::size_t>(cluster)];
        cl.iqAllocate(fp_iq);
        if (has_dest)
            cl.regAllocate(dest_fp);
        if (is_mem) {
            lsq_->allocate(inst.seq, op.isStore(), cluster,
                           activeClusters_);
            if (op.isStore())
                stats_.stores++;
            else
                stats_.loads++;
        }

        // --- rename ---------------------------------------------------------
        for (int s = 0; s < 2; s++) {
            if (srcs[s] != invalidReg)
                resolveSource(inst, s, *srcVal[s], srcProd[s]);
            else
                inst.srcReady[static_cast<std::size_t>(s)] = 0;
        }
        if (has_dest) {
            ValueInfo &prev = valueOf(op.dest);
            inst.prevDestCluster = prev.cluster;
            inst.prevDestHadReg = prev.producer != 0;
            inst.value = ValueInfo();
            inst.value.producer = inst.seq;
            inst.value.producerPc = op.pc;
            inst.value.cluster = cluster;
            inst.value.completeAt = neverCycle;
            renameTable_[static_cast<std::size_t>(op.dest)] = inst.seq;
        }

        // --- kick off scheduling for parts whose inputs are known ----------
        if (op.isLoad()) {
            if (inst.srcReady[0] != neverCycle)
                scheduleAddrGen(inst);
        } else if (op.isStore()) {
            if (inst.srcReady[1] != neverCycle)
                scheduleAddrGen(inst);
            if (inst.srcReady[0] != neverCycle) {
                inst.storeDataAt = std::max(inst.srcReady[0],
                                            inst.enterIqCycle);
                lsq_->setStoreData(inst.seq, inst.storeDataAt);
                if (inst.addrReadyAt != neverCycle && !inst.completed) {
                    markComplete(inst, std::max(inst.addrReadyAt,
                                                inst.storeDataAt));
                }
            }
        } else {
            if (inst.pendingSrcs == 0)
                scheduleExec(inst);
        }

        fetch_->pop();
        dispatched++;
    }
    return dispatched;
}

void
Processor::doFetch()
{
    fetch_->cycle(cycle_);
}

bool
Processor::applyReconfig()
{
    int target = activeClusters_;
    if (controller_) {
        CSIM_OBSERVE(onControllerTarget(controller_->name(),
                                        controller_->targetClusters()));
        target = std::clamp(controller_->targetClusters(),
                            minClusters_, cfg_.numClusters);
    }

    if (!cfg_.l1.decentralized) {
        if (target != activeClusters_) {
            CSIM_OBSERVE(onReconfigApply(activeClusters_, target,
                                         rob_.size(), lsq_->size(), false));
            activeClusters_ = target;
            stats_.reconfigurations++;
            return true;
        }
        return false;
    }

    // Decentralized: a change requires draining in-flight work, then
    // stalling while the L1 is flushed (the bank mapping changes).
    if (pendingTarget_ == 0) {
        if (target != activeClusters_) {
            pendingTarget_ = target;
            CSIM_OBSERVE(onEvent(TraceEventKind::ReconfigPending,
                                 activeClusters_,
                                 static_cast<std::uint64_t>(target)));
            return true;
        }
        return false;
    }
    if (pendingTarget_ == activeClusters_) {
        pendingTarget_ = 0;
        return true;
    }
    if (rob_.empty() && lsq_->size() == 0) {
        CSIM_OBSERVE(onReconfigApply(activeClusters_, pendingTarget_,
                                     rob_.size(), lsq_->size(), true));
        std::uint64_t flushed = l1_->flushAll(cycle_);
        stats_.flushWritebacks += flushed;
        dispatchStallUntil_ = cycle_ + flushed + 10;
        CSIM_OBSERVE(onEvent(TraceEventKind::CacheFlush,
                             static_cast<std::int64_t>(flushed)));
        activeClusters_ = pendingTarget_;
        pendingTarget_ = 0;
        stats_.reconfigurations++;
        return true;
    }
    return false;
}

} // namespace clustersim
