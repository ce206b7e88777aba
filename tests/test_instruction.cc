/**
 * @file
 * Unit tests for warp-level trace operations and transaction levels.
 */

#include <gtest/gtest.h>

#include "isa/instruction.hh"

namespace
{

using namespace mmgpu::isa;

TEST(TraceOp, FactoryKinds)
{
    EXPECT_EQ(TraceOp::loadGlobal(128).kind, TraceOpKind::Load);
    EXPECT_EQ(TraceOp::storeGlobal(128).kind, TraceOpKind::Store);
    EXPECT_EQ(TraceOp::loadShared().kind, TraceOpKind::Load);
    EXPECT_EQ(TraceOp::sync().kind, TraceOpKind::Sync);
    EXPECT_EQ(TraceOp::exit().kind, TraceOpKind::Exit);
}

TEST(TraceOp, LoadCarriesAddressAndSectors)
{
    TraceOp op = TraceOp::loadGlobal(4096, 8);
    EXPECT_EQ(op.addr, 4096u);
    EXPECT_EQ(op.sectors, 8u);
    EXPECT_EQ(op.op, Opcode::LD_GLOBAL);
}

TEST(TraceOp, ComputeBlockPacksSlotsAndLatency)
{
    TraceOp block = TraceOp::computeBlock(37, 412);
    EXPECT_EQ(block.kind, TraceOpKind::ComputeBlock);
    EXPECT_EQ(block.blockSlots(), 37u);
    EXPECT_EQ(block.blockLatency(), 412u);
}

TEST(TraceOp, ComputeBlockExtremeValues)
{
    TraceOp block = TraceOp::computeBlock(0xffffffffu, 0xfffffffeu);
    EXPECT_EQ(block.blockSlots(), 0xffffffffu);
    EXPECT_EQ(block.blockLatency(), 0xfffffffeu);
}

TEST(TxnLevel, BytesMatchTableIbGranularities)
{
    // Register-file-side transfers are 128 B; L2/DRAM are 32 B
    // sectors (derived from Table Ib's nJ and pJ/bit columns).
    EXPECT_EQ(txnBytes(TxnLevel::SharedToReg), 128u);
    EXPECT_EQ(txnBytes(TxnLevel::L1ToReg), 128u);
    EXPECT_EQ(txnBytes(TxnLevel::L2ToL1), 32u);
    EXPECT_EQ(txnBytes(TxnLevel::DramToL2), 32u);
}

TEST(TxnLevel, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < numTxnLevels; ++i)
        names.insert(txnLevelName(static_cast<TxnLevel>(i)));
    EXPECT_EQ(names.size(), numTxnLevels);
}

TEST(Constants, WarpAndLineGeometry)
{
    EXPECT_EQ(warpSize, 32u);
    EXPECT_EQ(cacheLineBytes, 128u);
    EXPECT_EQ(sectorBytes, 32u);
    EXPECT_EQ(cacheLineBytes % sectorBytes, 0u);
}

} // namespace
