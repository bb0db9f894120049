/**
 * @file
 * Phase-structured synthetic workload generator.
 *
 * This is the repository's substitute for the paper's SPEC2K/Mediabench
 * Alpha binaries (see DESIGN.md section 2). A workload is a set of
 * PhaseSpecs plus a schedule; each phase is compiled into a static
 * control-flow program (basic blocks, functions, per-branch behaviour)
 * which is then walked dynamically to produce the committed-path
 * instruction stream.
 *
 * The generator controls, per phase:
 *  - dependence-chain structure (chainCount / pChainDep): how much of the
 *    instruction window is serially chained vs. independent, i.e. how
 *    much *distant ILP* exists;
 *  - branch predictability (per-static-branch Biased/Pattern/Random
 *    classes): the branch mispredict interval;
 *  - memory behaviour (streams vs. random vs. pointer-chase): cache miss
 *    rates and memory-level parallelism;
 *  - instruction mix and basic-block size.
 */

#ifndef CLUSTERSIM_WORKLOAD_SYNTHETIC_HH
#define CLUSTERSIM_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "workload/address_stream.hh"
#include "workload/branch_model.hh"
#include "workload/phase.hh"
#include "workload/trace_source.hh"

namespace clustersim {

/** One entry of a workload's phase schedule. */
struct Segment {
    int phase = 0;              ///< index into WorkloadSpec::phases
    std::uint64_t meanLen = 0;  ///< mean dynamic instructions (0 = use
                                ///< the phase's meanPhaseLen)
};

/** Complete static description of a synthetic workload. */
struct WorkloadSpec {
    std::string name = "workload";
    std::vector<PhaseSpec> phases;
    /** Cycled forever; lengths are jittered +/-20% per occurrence. */
    std::vector<Segment> schedule;
    std::uint64_t seed = 1;
};

/**
 * TraceSource producing the dynamic instruction stream of a WorkloadSpec.
 *
 * Deterministic: the same spec (including seed) always produces the same
 * stream, so experiments are exactly reproducible.
 */
class SyntheticWorkload : public TraceSource
{
  public:
    explicit SyntheticWorkload(WorkloadSpec spec);
    ~SyntheticWorkload() override;

    MicroOp next() override;
    void reset() override;

    // Checkpoint support: a snapshot carries a clone of the generator,
    // so a restore resumes generation where the capture stood instead
    // of regenerating the stream up to it.
    std::uint64_t position() const override { return generated_; }
    std::unique_ptr<TraceSource> clone() const override;
    void checkpoint(FieldWriter &v) override;
    void checkpoint(FieldReader &v) override;

    const WorkloadSpec &spec() const { return spec_; }

    /** Index of the phase currently generating instructions. */
    int currentPhase() const { return curSegment_ >= 0
        ? spec_.schedule[static_cast<std::size_t>(curSegment_)].phase
        : 0; }

    /** Total instructions generated since construction/reset. */
    std::uint64_t generated() const { return generated_; }

    /** Instructions left in the current schedule segment; it ends at
     *  the first block boundary outside a call once this reaches 0. */
    std::uint64_t segmentLeft() const { return segmentLeft_; }

    /**
     * The generator's dynamic state (see core/snapshot_io.hh): its
     * random stream, the walk position, the register cursors, and per
     * phase the data streams and every static branch's pattern
     * position. The compiled programs are rebuilt from the spec, so
     * the donor's shapes bound every index read back.
     */
    template <class V>
    void
    fields(V &v)
    {
        rng_.fields(v);
        v.u64(generated_);

        v.i64(curSegment_, 0,
              static_cast<std::int64_t>(spec_.schedule.size()) - 1);
        v.u64(segmentLeft_);
        v.i64(curPhase_, 0, static_cast<std::int64_t>(programs_.size()) - 1);
        v.check(curPhase_ ==
                spec_.schedule[static_cast<std::size_t>(curSegment_)].phase);
        const std::vector<StaticBlock> &blocks =
            programs_[static_cast<std::size_t>(curPhase_)].blocks;
        const auto last_block = static_cast<std::int64_t>(blocks.size()) - 1;
        v.i64(curBlock_, 0, last_block);
        v.i64(pos_, 0, blocks[static_cast<std::size_t>(curBlock_)].len - 1);
        v.list(callStack_, maxCallDepth, [&](std::pair<Addr, int> &frame) {
            v.u64(frame.first);
            v.i64(frame.second, 0, last_block);
        });

        constexpr std::int64_t anyCursor = std::numeric_limits<int>::max();
        v.i64(chainCursor_, 0, anyCursor);
        v.i64(fpChainCursor_, 0, anyCursor);
        v.i64(streamCursor_, 0, anyCursor);
        v.i64(refreshCursor_, 0, numStreamRegs - 1);
        v.i64(sinceRefresh_, 0, refreshPeriod - 1);

        v.expect(programs_.size());
        for (PhaseProgram &prog : programs_) {
            prog.data.fields(v);
            v.expect(prog.blocks.size());
            for (StaticBlock &blk : prog.blocks)
                blk.branch.fields(v);
        }
    }

  private:
    /** Category of one body instruction slot. */
    enum class SlotKind : std::uint8_t {
        IntOp, IntMul, IntDiv, FpOp, FpMul, FpDiv,
        LoadStream, LoadRandom, LoadChase, Store,
    };

    /** One body slot: the instruction mix is *static* per block, as in
     *  real code, so interval statistics carry program signal rather
     *  than sampling noise. */
    struct Slot {
        SlotKind kind = SlotKind::IntOp;
        bool fp = false;      ///< fp destination/data (mem ops)
        bool addrDep = false; ///< address operand comes from a chain
    };

    /** Static basic block of a compiled phase program. */
    struct StaticBlock {
        Addr pc = 0;            ///< address of first instruction
        int len = 4;            ///< instructions, including terminator
        std::vector<Slot> body; ///< len-1 body slots
        BranchModel branch;     ///< conditional-terminator behaviour
        int takenSucc = 0;      ///< block index on taken
        int fallSucc = 0;       ///< block index on not-taken
        enum class Kind : std::uint8_t { Plain, CallSite, FuncExit } kind =
            Kind::Plain;
        int callee = -1;        ///< function entry block (CallSite)
    };

    /** A PhaseSpec compiled to static code plus data generators. */
    struct PhaseProgram {
        PhaseSpec spec;
        std::vector<StaticBlock> blocks;
        AddressStream data;
    };

    /** Deepest call nesting the walk enters. */
    static constexpr std::size_t maxCallDepth = 12;
    /** Long-lived stream base registers, refreshed round-robin. */
    static constexpr int numStreamRegs = 6;
    /** Body ops between two long-lived register refreshes. */
    static constexpr int refreshPeriod = 64;

    void buildPhase(int idx, Addr code_base, Addr data_base);
    void startNextSegment();
    void enterBlock(int block_idx);
    MicroOp makeBodyOp(Addr pc, const Slot &slot);
    MicroOp makeTerminator(Addr pc);

    // simlint-ignore(F001): the workload's identity, fixed at construction
    WorkloadSpec spec_;
    std::vector<PhaseProgram> programs_;

    Rng rng_;               ///< dynamic-instantiation randomness
    std::uint64_t generated_ = 0;

    // --- walk state -------------------------------------------------------
    int curSegment_ = -1;
    std::uint64_t segmentLeft_ = 0;
    int curPhase_ = 0;
    int curBlock_ = 0;
    int pos_ = 0;           ///< instruction position within block
    std::vector<std::pair<Addr, int>> callStack_; ///< (return pc, block)

    // --- register state ----------------------------------------------------
    int chainCursor_ = 0;   ///< round-robin chain selector
    int fpChainCursor_ = 0;
    int streamCursor_ = 0;  ///< round-robin stream selector
    int refreshCursor_ = 0; ///< rotating long-lived register writer
    int sinceRefresh_ = 0;
};

} // namespace clustersim

#endif // CLUSTERSIM_WORKLOAD_SYNTHETIC_HH
