/**
 * @file
 * Warp-level trace operations.
 *
 * The performance simulator is trace driven: each warp consumes a
 * stream of TraceOps. A TraceOp is a *warp-level* event — one compute
 * instruction issued for all 32 lanes, or one (possibly divergent)
 * memory access described by the set of 32 B sectors it touches.
 *
 * SYNC marks a point where the warp must wait for all of its
 * outstanding loads, which is how the generator expresses the
 * load-use dependency distance (memory-level parallelism).
 */

#ifndef MMGPU_ISA_INSTRUCTION_HH
#define MMGPU_ISA_INSTRUCTION_HH

#include <cstdint>

#include "common/units.hh"
#include "isa/opcode.hh"

namespace mmgpu::isa
{

/** Number of threads per warp (fixed across NVIDIA generations). */
inline constexpr unsigned warpSize = 32;

/** Memory transaction granularities (see DESIGN.md §4). */
inline constexpr Bytes sectorBytes = 32;    //!< L2/DRAM sector
inline constexpr Bytes cacheLineBytes = 128; //!< L1 line (4 sectors)

/** Kind of warp-level trace event. The numbering starts at 1 so the
 *  kinds keep the values the pinned trace digests were recorded
 *  with. */
enum class TraceOpKind : std::uint8_t
{
    ComputeBlock = 1, //!< a dependent chain of compute instructions,
                      //!< pre-aggregated for simulation efficiency
    Load,             //!< global or shared load
    Store,            //!< global or shared store
    Sync,             //!< wait for all outstanding memory ops of this warp
    Exit,             //!< warp terminates
};

/** One warp-level trace event. */
struct TraceOp
{
    TraceOpKind kind = TraceOpKind::Exit;

    /** Opcode (valid for Load/Store). */
    Opcode op = Opcode::FADD32;

    /**
     * First byte address of the access (valid for global Load/Store).
     * Sector-aligned by the generator.
     */
    std::uint64_t addr = 0;

    /**
     * Number of distinct 32 B sectors this warp access touches after
     * coalescing: 1 for fully coalesced within a sector, 4 for a full
     * 128 B line, up to 8 to model memory divergence. Divergent
     * accesses touch consecutive sector-strided addresses starting at
     * @c addr (a modelling simplification that preserves bandwidth
     * and energy cost).
     */
    std::uint8_t sectors = 1;

    /**
     * ComputeBlock only: total issue slots of the chain (low 32 bits
     * of @c addr) and total dependent-chain latency in cycles (high
     * 32 bits). Per-opcode instruction counts are taken from the
     * kernel profile's compute mix, which the block stands for.
     */
    std::uint32_t blockSlots() const
    {
        return static_cast<std::uint32_t>(addr);
    }
    std::uint32_t blockLatency() const
    {
        return static_cast<std::uint32_t>(addr >> 32);
    }

    /** Build a compute block with @p slots issue slots and @p latency
     *  cycles of dependent-chain latency. */
    static TraceOp
    computeBlock(std::uint32_t slots, std::uint32_t latency)
    {
        std::uint64_t packed =
            static_cast<std::uint64_t>(latency) << 32 | slots;
        return {TraceOpKind::ComputeBlock, Opcode::MOV32, packed, 0};
    }

    /** Build a global load touching @p sectors sectors at @p addr. */
    static TraceOp
    loadGlobal(std::uint64_t addr, std::uint8_t sectors = 1)
    {
        return {TraceOpKind::Load, Opcode::LD_GLOBAL, addr, sectors};
    }

    /** Build a global store touching @p sectors sectors at @p addr. */
    static TraceOp
    storeGlobal(std::uint64_t addr, std::uint8_t sectors = 1)
    {
        return {TraceOpKind::Store, Opcode::ST_GLOBAL, addr, sectors};
    }

    /** Build a shared-memory load (no address: SRAM, always local). */
    static TraceOp
    loadShared()
    {
        return {TraceOpKind::Load, Opcode::LD_SHARED, 0, 1};
    }

    /** Build a SYNC (wait-for-outstanding-loads) marker. */
    static TraceOp
    sync()
    {
        return {TraceOpKind::Sync, Opcode::MOV32, 0, 0};
    }

    /** Build the warp-exit marker. */
    static TraceOp
    exit()
    {
        return {TraceOpKind::Exit, Opcode::MOV32, 0, 0};
    }
};

/**
 * Memory transaction levels used by the EPT table (Table Ib rows).
 * These name the *edge* of the hierarchy a transfer crosses.
 */
enum class TxnLevel : std::uint8_t
{
    SharedToReg,  //!< shared memory SRAM -> register file, 128 B
    L1ToReg,      //!< L1 cache -> register file, 128 B
    L2ToL1,       //!< L2 cache -> L1, 32 B sector
    DramToL2,     //!< DRAM -> L2, 32 B sector
    NumLevels
};

/** Number of transaction levels (for dense EPT tables). */
inline constexpr std::size_t numTxnLevels =
    static_cast<std::size_t>(TxnLevel::NumLevels);

/** @return human-readable name for @p level. */
const char *txnLevelName(TxnLevel level);

/** @return transfer size in bytes for @p level (128 B or 32 B). */
Bytes txnBytes(TxnLevel level);

} // namespace mmgpu::isa

#endif // MMGPU_ISA_INSTRUCTION_HH
