#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/snapshot_io.hh"

namespace clustersim {

namespace {

// Register-file convention used by the generator (see isa.hh):
//   int 0..23   : integer dependence-chain tails (chain c -> reg c % 24)
//   int 24..29  : stream base / induction registers (long-lived)
//   int 30      : pointer-chase register
//   int 31      : global long-lived value (always ready)
//   fp  32..55  : fp dependence-chain tails
//   fp  56..62  : fp long-lived values
//   fp  63      : fp accumulator (rarely written)
constexpr RegIndex maxIntChains = 24;
constexpr RegIndex maxFpChains = 24;
constexpr RegIndex streamBaseReg = 24;
constexpr RegIndex chaseReg = 30;
constexpr RegIndex globalIntReg = 31;
constexpr RegIndex fpChainBase = 32;
constexpr RegIndex fpLongLivedBase = 56;
constexpr int numFpLongLived = 7;

constexpr int bytesPerInst = 4;

} // namespace

SyntheticWorkload::SyntheticWorkload(WorkloadSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed, 0x7721)
{
    CSIM_ASSERT(!spec_.phases.empty(), "workload has no phases");
    if (spec_.schedule.empty())
        spec_.schedule.push_back({0, 0});
    for (const auto &seg : spec_.schedule) {
        CSIM_ASSERT(seg.phase >= 0 &&
                    seg.phase < static_cast<int>(spec_.phases.size()),
                    "schedule references unknown phase");
    }

    // reset() compiles every phase: code regions are spaced 16 MB
    // apart; the data region is shared across phases (program phases
    // operate on the same heap, so switching phases does not refetch
    // everything).
    reset();
}

SyntheticWorkload::~SyntheticWorkload() = default;

void
SyntheticWorkload::buildPhase(int idx, Addr code_base, Addr data_base)
{
    const PhaseSpec &ps = spec_.phases[static_cast<std::size_t>(idx)];
    CSIM_ASSERT(ps.codeBlocks >= 2, "phase needs at least two blocks");
    CSIM_ASSERT(ps.chainCount >= 1 && ps.chainCount <= maxIntChains,
                "chainCount out of range [1,24]: ", ps.chainCount);

    // Deterministic per-phase build generator, independent of walk order.
    Rng build(spec_.seed * 2654435761ULL + static_cast<std::uint64_t>(idx),
              0x51ed);

    int num_funcs = std::max(0, ps.numFunctions);
    int total_blocks = ps.codeBlocks + num_funcs;
    std::vector<StaticBlock> blocks(static_cast<std::size_t>(total_blocks));

    // Lay out blocks contiguously so that a not-taken terminator falls
    // through to the next block's first instruction (pc + 4).
    Addr pc = code_base;
    for (int b = 0; b < total_blocks; b++) {
        auto &blk = blocks[static_cast<std::size_t>(b)];
        bool is_func = b >= ps.codeBlocks;
        double mean = is_func ? ps.avgBlockLen * 2 : ps.avgBlockLen;
        // Uniform band around the mean: real loop bodies have far less
        // length variance than a geometric draw, and interval-statistic
        // noise tracks block-length variance directly. Loop-structured
        // phases use a fixed length (identical loop bodies).
        if (ps.uniformBlockMix) {
            blk.len = std::clamp(static_cast<int>(mean + 0.5), 3, 60);
        } else {
            int lo = std::max(3, static_cast<int>(mean * 0.6));
            int hi = std::max(lo + 1, static_cast<int>(mean * 1.4));
            blk.len = std::clamp(lo + static_cast<int>(build.range(
                static_cast<std::uint32_t>(hi - lo + 1))), 3, 60);
        }
        blk.pc = pc;
        pc += static_cast<Addr>(blk.len) * bytesPerInst;

    }

    // Static body skeletons: the instruction mix of a block is fixed at
    // build time, as it is in real code, so interval statistics
    // (branch/memref frequencies) carry program structure rather than
    // per-op sampling noise. Loop-structured phases (uniformBlockMix)
    // stratify the mix deterministically so every block matches the
    // phase mix almost exactly; irregular phases sample iid per block,
    // giving the per-block diversity behind Table 4's instability.
    double acc_load = 0, acc_store = 0, acc_fp = 0, acc_ll = 0;
    double acc_chase = 0, acc_stream = 0;
    for (int b = 0; b < total_blocks; b++) {
        auto &blk = blocks[static_cast<std::size_t>(b)];
        blk.body.resize(static_cast<std::size_t>(blk.len - 1));
        for (auto &slot : blk.body) {
            bool is_load, is_store, long_lat;
            int mem_kind = 0; // 0 stream, 1 random, 2 chase
            if (ps.uniformBlockMix) {
                acc_load += ps.fracLoad;
                acc_store += ps.fracStore;
                acc_fp += ps.fracFp;
                acc_ll += ps.fracLongLat;
                is_load = acc_load >= 1.0;
                if (is_load)
                    acc_load -= 1.0;
                is_store = !is_load && acc_store >= 1.0;
                if (is_store)
                    acc_store -= 1.0;
                slot.fp = acc_fp >= 1.0;
                if (slot.fp)
                    acc_fp -= 1.0;
                long_lat = acc_ll >= 1.0;
                if (long_lat)
                    acc_ll -= 1.0;
                if (is_load) {
                    acc_chase += ps.fracPointerChase;
                    acc_stream += ps.fracStreamMem;
                    if (acc_chase >= 1.0) {
                        mem_kind = 2;
                        acc_chase -= 1.0;
                    } else if (acc_stream >= 1.0) {
                        mem_kind = 0;
                        acc_stream -= 1.0;
                    } else {
                        mem_kind = 1;
                    }
                }
            } else {
                double roll = build.uniform();
                is_load = roll < ps.fracLoad;
                is_store = !is_load &&
                           roll < ps.fracLoad + ps.fracStore;
                slot.fp = build.chance(ps.fracFp);
                long_lat = build.chance(ps.fracLongLat);
                if (is_load) {
                    double kind = build.uniform();
                    if (kind < ps.fracPointerChase)
                        mem_kind = 2;
                    else if (kind < ps.fracPointerChase +
                                        ps.fracStreamMem)
                        mem_kind = 0;
                    else
                        mem_kind = 1;
                }
            }
            slot.addrDep = build.chance(ps.pAddrChainDep);
            if (is_load) {
                slot.kind = mem_kind == 2 ? SlotKind::LoadChase
                          : mem_kind == 0 ? SlotKind::LoadStream
                                          : SlotKind::LoadRandom;
            } else if (is_store) {
                slot.kind = SlotKind::Store;
            } else {
                // fp divides are rare and expensive (non-pipelined).
                bool div = long_lat &&
                           build.chance(ps.fracFp > 0 ? 0.05 : 0.2);
                if (slot.fp) {
                    slot.kind = div ? SlotKind::FpDiv
                                    : (long_lat ? SlotKind::FpMul
                                                : SlotKind::FpOp);
                } else {
                    slot.kind = div ? SlotKind::IntDiv
                                    : (long_lat ? SlotKind::IntMul
                                                : SlotKind::IntOp);
                }
            }
        }
    }

    // Branch behaviour assignment. Irregular code gets *contiguous
    // runs* of same-class blocks, so the dynamic walk sees
    // neighbourhoods of differing predictability -- this is what makes
    // integer codes unstable across small measurement intervals
    // (Table 4). Loop-structured code (uniformBlockMix) interleaves
    // the classes so every neighbourhood matches the phase average.
    constexpr double golden = 0.6180339887498949;
    for (int b = 0; b < total_blocks; b++) {
        auto &blk = blocks[static_cast<std::size_t>(b)];
        double frac;
        if (ps.uniformBlockMix) {
            frac = std::fmod(static_cast<double>(b) * golden, 1.0);
        } else {
            frac = ps.codeBlocks > 1
                ? static_cast<double>(b % ps.codeBlocks) / ps.codeBlocks
                : 0.0;
        }
        BranchClass cls;
        if (frac < ps.fracBiased)
            cls = BranchClass::Biased;
        else if (frac < ps.fracBiased + ps.fracPattern)
            cls = BranchClass::Pattern;
        else
            cls = BranchClass::Random;
        blk.branch = BranchModel(cls, ps.biasedTakenProb, build);
    }

    // Successors. Not-taken always falls through to the next main block;
    // taken targets prefer nearby blocks (local loops) and occasionally
    // jump far, so the dynamic walk dwells in neighbourhoods.
    constexpr double p_local_jump = 0.85;
    constexpr int local_span = 8;
    for (int b = 0; b < ps.codeBlocks; b++) {
        auto &blk = blocks[static_cast<std::size_t>(b)];
        blk.fallSucc = (b + 1) % ps.codeBlocks;
        if (build.chance(p_local_jump)) {
            int lo = std::max(0, b - local_span);
            int hi = std::min(ps.codeBlocks - 1, b + local_span);
            blk.takenSucc = lo + static_cast<int>(
                build.range(static_cast<std::uint32_t>(hi - lo + 1)));
        } else {
            blk.takenSucc = static_cast<int>(
                build.range(static_cast<std::uint32_t>(ps.codeBlocks)));
        }
        // The last main block always branches back to block 0 so the walk
        // never falls off the end of the region.
        if (b == ps.codeBlocks - 1) {
            blk.branch = BranchModel(BranchClass::Biased, 1.0, build);
            blk.takenSucc = 0;
        }
    }

    // Function blocks: single-block functions terminated by Return.
    for (int f = 0; f < num_funcs; f++) {
        auto &blk = blocks[static_cast<std::size_t>(ps.codeBlocks + f)];
        blk.kind = StaticBlock::Kind::FuncExit;
        blk.takenSucc = 0; // dynamic: popped from the call stack
        blk.fallSucc = 0;
    }

    // Promote some main blocks to call sites.
    if (num_funcs > 0 && ps.fracCallBlocks > 0) {
        for (int b = 0; b + 1 < ps.codeBlocks; b++) {
            auto &blk = blocks[static_cast<std::size_t>(b)];
            if (build.chance(ps.fracCallBlocks)) {
                blk.kind = StaticBlock::Kind::CallSite;
                blk.callee = ps.codeBlocks + static_cast<int>(
                    build.range(static_cast<std::uint32_t>(num_funcs)));
            }
        }
    }

    AddressStreamParams asp;
    asp.streams = std::max(1, ps.streamCount);
    asp.strideBytes = ps.streamStride;
    asp.streamSpanKB = ps.streamSpanKB;
    asp.footprintKB = ps.footprintKB;
    asp.hotFraction = ps.hotFraction;
    asp.hotRegionKB = ps.hotRegionKB;
    asp.chaseRegionKB = ps.chaseRegionKB;
    programs_.push_back(PhaseProgram{
        ps, std::move(blocks), AddressStream(data_base, asp, build.fork())});
}

void
SyntheticWorkload::reset()
{
    // Rebuild the compiled phase programs: branch-model positions and
    // address-generator state are part of the replayable stream state.
    programs_.clear();
    Addr code_base = 0x00400000;
    Addr data_base = 0x10000000;
    for (int i = 0; i < static_cast<int>(spec_.phases.size()); i++) {
        buildPhase(i, code_base, data_base);
        code_base += 16ULL << 20;
    }

    rng_ = Rng(spec_.seed, 0x7721);
    generated_ = 0;
    curSegment_ = -1;
    segmentLeft_ = 0;
    callStack_.clear();
    chainCursor_ = 0;
    fpChainCursor_ = 0;
    streamCursor_ = 0;
    refreshCursor_ = 0;
    sinceRefresh_ = 0;
    startNextSegment();
}

std::unique_ptr<TraceSource>
SyntheticWorkload::clone() const
{
    return std::make_unique<SyntheticWorkload>(*this);
}

void
SyntheticWorkload::checkpoint(FieldWriter &v)
{
    fields(v);
}

void
SyntheticWorkload::checkpoint(FieldReader &v)
{
    fields(v);
}

void
SyntheticWorkload::startNextSegment()
{
    curSegment_ = (curSegment_ + 1) %
        static_cast<int>(spec_.schedule.size());
    const Segment &seg =
        spec_.schedule[static_cast<std::size_t>(curSegment_)];
    const PhaseSpec &ps = spec_.phases[static_cast<std::size_t>(seg.phase)];
    std::uint64_t mean = seg.meanLen ? seg.meanLen : ps.meanPhaseLen;
    // +/- 2% jitter so phase boundaries do not alias with intervals.
    double jitter = 0.98 + 0.04 * rng_.uniform();
    segmentLeft_ = std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(mean * jitter));
    if (seg.phase != curPhase_ || generated_ == 0) {
        curPhase_ = seg.phase;
        callStack_.clear();
        programs_[static_cast<std::size_t>(curPhase_)]
            .data.rewindStreams();
        enterBlock(0);
    }
}

void
SyntheticWorkload::enterBlock(int block_idx)
{
    curBlock_ = block_idx;
    pos_ = 0;
}

MicroOp
SyntheticWorkload::next()
{
    PhaseProgram &prog = programs_[static_cast<std::size_t>(curPhase_)];
    StaticBlock &blk = prog.blocks[static_cast<std::size_t>(curBlock_)];
    Addr pc = blk.pc + static_cast<Addr>(pos_) * bytesPerInst;

    MicroOp op;
    if (pos_ < blk.len - 1) {
        op = makeBodyOp(pc,
                        blk.body[static_cast<std::size_t>(pos_)]);
        pos_++;
    } else {
        op = makeTerminator(pc);
    }

    generated_++;
    if (segmentLeft_ > 0)
        segmentLeft_--;
    // Segment boundaries take effect at the next block boundary so the
    // control-flow walk stays consistent.
    if (segmentLeft_ == 0 && pos_ == 0 && callStack_.empty())
        startNextSegment();
    return op;
}

MicroOp
SyntheticWorkload::makeBodyOp(Addr pc, const Slot &slot)
{
    PhaseProgram &prog = programs_[static_cast<std::size_t>(curPhase_)];
    const PhaseSpec &ps = prog.spec;
    int nchains = std::max(1, ps.chainCount);

    MicroOp op;
    op.pc = pc;

    // Periodically refresh a long-lived register so those values exist.
    if (++sinceRefresh_ >= refreshPeriod) {
        sinceRefresh_ = 0;
        refreshCursor_ = (refreshCursor_ + 1) % numStreamRegs;
        op.op = OpClass::IntAlu;
        op.src1 = globalIntReg;
        op.dest = static_cast<RegIndex>(streamBaseReg + refreshCursor_);
        return op;
    }

    auto chain_reg = [&]() {
        return static_cast<RegIndex>(chainCursor_ % nchains);
    };
    auto fp_chain_reg = [&]() {
        return static_cast<RegIndex>(fpChainBase +
                                     (fpChainCursor_ % nchains));
    };
    auto load_dest = [&]() {
        return slot.fp
            ? static_cast<RegIndex>(fpChainBase +
                  (fpChainCursor_++ % nchains))
            : static_cast<RegIndex>(chainCursor_++ % nchains);
    };

    switch (slot.kind) {
      case SlotKind::LoadChase:
        // Pointer chase: address depends on the previous chase load.
        op.op = OpClass::Load;
        op.src1 = chaseReg;
        op.dest = chaseReg;
        op.effAddr = prog.data.nextChase();
        break;
      case SlotKind::LoadStream: {
        op.op = OpClass::Load;
        int s = streamCursor_++;
        op.src1 = slot.addrDep
            ? chain_reg()
            : static_cast<RegIndex>(streamBaseReg + (s % numStreamRegs));
        op.effAddr = prog.data.nextStream(s %
            std::max(1, ps.streamCount));
        op.dest = load_dest();
        break;
      }
      case SlotKind::LoadRandom:
        op.op = OpClass::Load;
        op.src1 = slot.addrDep ? chain_reg() : globalIntReg;
        op.effAddr = prog.data.nextRandom();
        op.dest = load_dest();
        break;
      case SlotKind::Store: {
        op.op = OpClass::Store;
        op.src1 = slot.fp ? fp_chain_reg() : chain_reg();
        if (rng_.chance(ps.fracStreamMem)) {
            int s = streamCursor_++;
            op.src2 = slot.addrDep
                ? chain_reg()
                : static_cast<RegIndex>(streamBaseReg +
                                        (s % numStreamRegs));
            op.effAddr = prog.data.nextStream(s %
                std::max(1, ps.streamCount));
        } else {
            op.src2 = slot.addrDep ? chain_reg() : globalIntReg;
            op.effAddr = prog.data.nextRandom();
        }
        break;
      }
      case SlotKind::FpOp:
      case SlotKind::FpMul:
      case SlotKind::FpDiv: {
        op.op = slot.kind == SlotKind::FpDiv
            ? OpClass::FpDiv
            : (slot.kind == SlotKind::FpMul ? OpClass::FpMult
                                            : OpClass::FpAlu);
        int c = fpChainCursor_++ % nchains;
        op.dest = static_cast<RegIndex>(fpChainBase + c);
        op.src1 = rng_.chance(ps.pChainDep)
            ? op.dest
            : static_cast<RegIndex>(fpLongLivedBase +
                  static_cast<RegIndex>(rng_.range(numFpLongLived)));
        if (rng_.chance(ps.pSecondSrc)) {
            int c2 = fpChainCursor_ % nchains;
            op.src2 = static_cast<RegIndex>(fpChainBase + c2);
        }
        break;
      }
      case SlotKind::IntOp:
      case SlotKind::IntMul:
      case SlotKind::IntDiv: {
        op.op = slot.kind == SlotKind::IntDiv
            ? OpClass::IntDiv
            : (slot.kind == SlotKind::IntMul ? OpClass::IntMult
                                             : OpClass::IntAlu);
        int c = chainCursor_++ % nchains;
        op.dest = static_cast<RegIndex>(c);
        op.src1 = rng_.chance(ps.pChainDep) ? op.dest : globalIntReg;
        if (rng_.chance(ps.pSecondSrc)) {
            int c2 = chainCursor_ % nchains;
            op.src2 = static_cast<RegIndex>(c2);
        }
        break;
      }
    }
    return op;
}

MicroOp
SyntheticWorkload::makeTerminator(Addr pc)
{
    PhaseProgram &prog = programs_[static_cast<std::size_t>(curPhase_)];
    StaticBlock &blk = prog.blocks[static_cast<std::size_t>(curBlock_)];

    MicroOp op;
    op.pc = pc;

    if (blk.kind == StaticBlock::Kind::CallSite && blk.callee >= 0 &&
        callStack_.size() < maxCallDepth) {
        op.op = OpClass::Call;
        op.taken = true;
        op.target =
            prog.blocks[static_cast<std::size_t>(blk.callee)].pc;
        callStack_.emplace_back(op.fallthru(), blk.fallSucc);
        enterBlock(blk.callee);
        return op;
    }

    if (blk.kind == StaticBlock::Kind::FuncExit && !callStack_.empty()) {
        op.op = OpClass::Return;
        op.taken = true;
        auto [ret_pc, ret_block] = callStack_.back();
        callStack_.pop_back();
        op.target = ret_pc;
        enterBlock(ret_block);
        return op;
    }

    // Conditional branch. Branch condition reads an integer chain tail.
    op.op = OpClass::CondBranch;
    op.src1 = static_cast<RegIndex>(
        chainCursor_ % std::max(1, prog.spec.chainCount));
    op.taken = blk.branch.nextOutcome(rng_);
    int succ = op.taken ? blk.takenSucc : blk.fallSucc;
    op.target = prog.blocks[static_cast<std::size_t>(blk.takenSucc)].pc;
    enterBlock(succ);
    return op;
}

} // namespace clustersim
