/**
 * @file
 * The micro-op "ISA" consumed by the simulator core.
 *
 * The simulator is trace-driven: a TraceSource supplies the committed-path
 * dynamic instruction stream as MicroOps. Logical registers 0..31 are
 * integer, 32..63 floating-point; the core renames them onto per-cluster
 * physical registers.
 */

#ifndef CLUSTERSIM_WORKLOAD_ISA_HH
#define CLUSTERSIM_WORKLOAD_ISA_HH

#include <cstdint>

#include "common/types.hh"

namespace clustersim {

/** Number of integer logical registers. */
inline constexpr RegIndex numIntRegs = 32;
/** Number of floating-point logical registers. */
inline constexpr RegIndex numFpRegs = 32;
/** Total logical registers (int + fp). */
inline constexpr RegIndex numLogicalRegs = numIntRegs + numFpRegs;

/** True if the register index names a floating-point register. */
inline bool
isFpReg(RegIndex r)
{
    return r >= numIntRegs;
}

/** Operation classes, mirroring SimpleScalar's functional unit classes. */
enum class OpClass : std::uint8_t {
    IntAlu,     ///< single-cycle integer op (also branch/compare)
    IntMult,    ///< integer multiply
    IntDiv,     ///< integer divide (non-pipelined)
    FpAlu,      ///< fp add/sub/convert
    FpMult,     ///< fp multiply
    FpDiv,      ///< fp divide (non-pipelined)
    Load,       ///< memory read
    Store,      ///< memory write
    CondBranch, ///< conditional branch
    Call,       ///< subroutine call (always taken)
    Return,     ///< subroutine return (always taken)
};

/** Number of distinct op classes. */
inline constexpr int numOpClasses = 11;

/** True for loads and stores. */
inline bool
isMemOp(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True for any control-transfer op. */
inline bool
isControlOp(OpClass c)
{
    return c == OpClass::CondBranch || c == OpClass::Call ||
           c == OpClass::Return;
}

/** True for ops that execute in the floating-point partition. */
inline bool
isFpOp(OpClass c)
{
    return c == OpClass::FpAlu || c == OpClass::FpMult ||
           c == OpClass::FpDiv;
}

/** Human-readable op class name. */
const char *opClassName(OpClass c);

/**
 * One dynamic committed-path instruction.
 *
 * Control ops carry their actual direction/target so the core can score
 * its branch predictor against them; memory ops carry the effective
 * (virtual) address.
 */
struct MicroOp {
    Addr pc = 0;               ///< instruction address
    OpClass op = OpClass::IntAlu;
    RegIndex src1 = invalidReg; ///< first source, or invalidReg
    RegIndex src2 = invalidReg; ///< second source, or invalidReg
    RegIndex dest = invalidReg; ///< destination, or invalidReg
    Addr effAddr = 0;          ///< effective address (mem ops)
    bool taken = false;        ///< actual direction (control ops)
    Addr target = 0;           ///< actual next PC if taken (control ops)

    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool isMem() const { return isMemOp(op); }
    bool isControl() const { return isControlOp(op); }
    bool isFp() const { return isFpOp(op); }

    /** PC of the next sequential instruction. */
    Addr fallthru() const { return pc + 4; }

    /** Actual next PC on the committed path. */
    Addr nextPc() const { return (isControl() && taken) ? target
                                                        : fallthru(); }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.u64(pc);
        v.u8(op, numOpClasses - 1);
        v.i64(src1, invalidReg, numLogicalRegs - 1);
        v.i64(src2, invalidReg, numLogicalRegs - 1);
        v.i64(dest, invalidReg, numLogicalRegs - 1);
        v.u64(effAddr);
        v.boolean(taken);
        v.u64(target);
    }
};

/** Human-readable op class name (implemented inline for header-only use).*/
inline const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu:     return "IntAlu";
      case OpClass::IntMult:    return "IntMult";
      case OpClass::IntDiv:     return "IntDiv";
      case OpClass::FpAlu:      return "FpAlu";
      case OpClass::FpMult:     return "FpMult";
      case OpClass::FpDiv:      return "FpDiv";
      case OpClass::Load:       return "Load";
      case OpClass::Store:      return "Store";
      case OpClass::CondBranch: return "CondBranch";
      case OpClass::Call:       return "Call";
      case OpClass::Return:     return "Return";
    }
    return "?";
}

} // namespace clustersim

#endif // CLUSTERSIM_WORKLOAD_ISA_HH
