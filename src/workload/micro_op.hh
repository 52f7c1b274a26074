/**
 * @file
 * The dynamic micro-operation record produced by the synthetic
 * workload generators and consumed by the timing simulator. This is
 * the trace format of the reproduction: where the paper's xp-scalar
 * executes PISA binaries under SimpleScalar, we replay traces of
 * MicroOps whose statistics are calibrated per benchmark (see
 * profile.hh and trace.hh).
 */

#ifndef XPS_WORKLOAD_MICRO_OP_HH
#define XPS_WORKLOAD_MICRO_OP_HH

#include <cstdint>

namespace xps
{

/** Operation classes modelled by the core. */
enum class OpClass : uint8_t
{
    IntAlu,     ///< single-cycle integer op
    IntMul,     ///< multi-cycle integer multiply/divide
    Load,       ///< memory read
    Store,      ///< memory write
    CondBranch, ///< conditional branch (predicted, resolves at exec)
    Jump,       ///< unconditional control transfer (breaks fetch)
};

/** Number of OpClass values (for mix accounting). */
constexpr int kNumOpClasses = 6;

/** Human-readable op-class name. */
const char *opClassName(OpClass cls);

/**
 * One dynamic instruction. Register dependences are encoded as
 * *dynamic distances*: srcDist[i] = d means the i-th source operand is
 * produced by the instruction d positions earlier in the dynamic
 * stream (d >= 1); 0 means the operand is already available.
 *
 * Laid out widest field first so an op packs into 24 bytes: a trace
 * holds one per simulated instruction (DESIGN.md §6).
 */
struct MicroOp
{
    /** Effective address for Load/Store; 0 otherwise. */
    uint64_t addr = 0;
    /** Static site of a branch (synthetic PC for predictor indexing). */
    uint64_t pc = 0;
    /** Distances are at most the generator's kMaxDepDistance (256). */
    uint16_t srcDist[2] = {0, 0};
    OpClass cls = OpClass::IntAlu;
    uint8_t numSrcs = 0;
    /** Outcome for CondBranch (Jump is always taken). */
    bool taken = false;

    bool
    operator==(const MicroOp &o) const
    {
        return cls == o.cls && numSrcs == o.numSrcs &&
               srcDist[0] == o.srcDist[0] &&
               srcDist[1] == o.srcDist[1] && addr == o.addr &&
               taken == o.taken && pc == o.pc;
    }

    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool
    isControl() const
    {
        return cls == OpClass::CondBranch || cls == OpClass::Jump;
    }
};

static_assert(sizeof(MicroOp) == 24, "a trace stores one MicroOp per "
                                      "instruction; keep it compact");

/**
 * Decoded per-op metadata byte. The core's cycle loop asks the same
 * handful of questions about every op it touches — class, memory-ness,
 * does-it-end-the-fetch-group, was-it-mispredicted — once per op per
 * *configuration evaluation*. A TraceBuffer answers them once, in the
 * pass that generates its ops, and stores one byte per op beside them,
 * so the per-op classification switches become single-byte tests.
 *
 * Bit layout:
 *   0-2  OpClass (numeric value)
 *   3    memory op (load or store)
 *   4    store
 *   5    taken control op (ends the fetch group)
 *   6    conditional branch
 *   7    mispredicted (the trace's branch-predictor outcome)
 */
constexpr uint8_t kMetaClsMask = 0x07;
constexpr uint8_t kMetaIsMem = 0x08;
constexpr uint8_t kMetaIsStore = 0x10;
constexpr uint8_t kMetaEndsGroup = 0x20;
constexpr uint8_t kMetaCondBranch = 0x40;
constexpr uint8_t kMetaMispredict = 0x80;

/** Decode the static meta bits (everything except mispredict). */
inline uint8_t
decodeMicroOp(const MicroOp &op)
{
    uint8_t m = static_cast<uint8_t>(op.cls);
    if (op.isMem())
        m |= kMetaIsMem;
    if (op.isStore())
        m |= kMetaIsStore;
    if (op.cls == OpClass::CondBranch)
        m |= kMetaCondBranch;
    if (op.isControl() && op.taken)
        m |= kMetaEndsGroup;
    return m;
}

inline bool
metaIsLoad(uint8_t m)
{
    return (m & (kMetaIsMem | kMetaIsStore)) == kMetaIsMem;
}

} // namespace xps

#endif // XPS_WORKLOAD_MICRO_OP_HH
