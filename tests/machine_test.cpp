//===----------------------------------------------------------------------===//
/// \file Unit tests for the machine model and modulo resource table.
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"
#include "machine/ModuloResourceTable.h"

#include <gtest/gtest.h>

using namespace lsms;

TEST(MachineModel, Table1Latencies) {
  const MachineModel M = MachineModel::cydra5();
  EXPECT_EQ(M.latency(Opcode::Load), 13);
  EXPECT_EQ(M.latency(Opcode::Store), 1);
  EXPECT_EQ(M.latency(Opcode::AddrAdd), 1);
  EXPECT_EQ(M.latency(Opcode::IntAdd), 1);
  EXPECT_EQ(M.latency(Opcode::FloatAdd), 1);
  EXPECT_EQ(M.latency(Opcode::FloatMul), 2);
  EXPECT_EQ(M.latency(Opcode::IntDiv), 17);
  EXPECT_EQ(M.latency(Opcode::FloatSqrt), 21);
  EXPECT_EQ(M.latency(Opcode::BrTop), 2);
}

TEST(MachineModel, Table1UnitCounts) {
  const MachineModel M = MachineModel::cydra5();
  EXPECT_EQ(M.unitCount(FuKind::MemoryPort), 2);
  EXPECT_EQ(M.unitCount(FuKind::AddressAlu), 2);
  EXPECT_EQ(M.unitCount(FuKind::Adder), 1);
  EXPECT_EQ(M.unitCount(FuKind::Multiplier), 1);
  EXPECT_EQ(M.unitCount(FuKind::Divider), 1);
  EXPECT_EQ(M.unitCount(FuKind::Branch), 1);
}

TEST(MachineModel, DividerIsNotPipelined) {
  const MachineModel M = MachineModel::cydra5();
  EXPECT_FALSE(M.isPipelined(FuKind::Divider));
  EXPECT_TRUE(M.isPipelined(FuKind::Adder));
  EXPECT_EQ(M.reservationCycles(Opcode::FloatDiv), 17);
  EXPECT_EQ(M.reservationCycles(Opcode::FloatSqrt), 21);
  EXPECT_EQ(M.reservationCycles(Opcode::Load), 1);
}

TEST(MachineModel, PseudoOpsTakeNoResources) {
  const MachineModel M = MachineModel::cydra5();
  EXPECT_EQ(M.unitFor(Opcode::Start), FuKind::None);
  EXPECT_EQ(M.unitFor(Opcode::Stop), FuKind::None);
  EXPECT_EQ(M.reservationCycles(Opcode::Start), 0);
  EXPECT_EQ(M.latency(Opcode::Start), 0);
}

TEST(MachineModel, LoadLatencyOverride) {
  const MachineModel M = MachineModel::withLoadLatency(5);
  EXPECT_EQ(M.latency(Opcode::Load), 5);
  EXPECT_EQ(M.latency(Opcode::Store), 1);
}

TEST(MachineModel, OpcodeNamesAreStable) {
  EXPECT_STREQ(opcodeName(Opcode::FloatAdd), "fadd");
  EXPECT_STREQ(opcodeName(Opcode::BrTop), "brtop");
  EXPECT_STREQ(opcodeName(Opcode::Select), "select");
}

TEST(OpcodeClassification, Predicates) {
  EXPECT_TRUE(producesPredicate(Opcode::CmpLT));
  EXPECT_TRUE(producesPredicate(Opcode::PredNot));
  EXPECT_FALSE(producesPredicate(Opcode::Select));
  EXPECT_FALSE(producesPredicate(Opcode::FloatAdd));
}

TEST(OpcodeClassification, DividerOps) {
  EXPECT_TRUE(isDividerOp(Opcode::IntMod));
  EXPECT_TRUE(isDividerOp(Opcode::FloatSqrt));
  EXPECT_FALSE(isDividerOp(Opcode::FloatMul));
}

TEST(ModuloResourceTable, ModuloConflicts) {
  const MachineModel M = MachineModel::cydra5();
  ModuloResourceTable Mrt(M, 4);
  EXPECT_TRUE(Mrt.canPlace(Opcode::FloatAdd, FuKind::Adder, 0, 2));
  Mrt.place(Opcode::FloatAdd, FuKind::Adder, 0, 2);
  // Cycle 6 == 2 mod 4 conflicts; cycle 3 does not.
  EXPECT_FALSE(Mrt.canPlace(Opcode::FloatAdd, FuKind::Adder, 0, 6));
  EXPECT_TRUE(Mrt.canPlace(Opcode::FloatAdd, FuKind::Adder, 0, 3));
}

TEST(ModuloResourceTable, InstancesAreIndependent) {
  const MachineModel M = MachineModel::cydra5();
  ModuloResourceTable Mrt(M, 2);
  Mrt.place(Opcode::Load, FuKind::MemoryPort, 0, 0);
  EXPECT_FALSE(Mrt.canPlace(Opcode::Store, FuKind::MemoryPort, 0, 0));
  EXPECT_TRUE(Mrt.canPlace(Opcode::Store, FuKind::MemoryPort, 1, 0));
}

TEST(ModuloResourceTable, NonPipelinedReservationSpansLatency) {
  const MachineModel M = MachineModel::cydra5();
  ModuloResourceTable Mrt(M, 20);
  Mrt.place(Opcode::FloatDiv, FuKind::Divider, 0, 2);
  // Divider busy cycles 2..18 (mod 20).
  EXPECT_FALSE(Mrt.canPlace(Opcode::IntDiv, FuKind::Divider, 0, 10));
  EXPECT_FALSE(Mrt.canPlace(Opcode::IntDiv, FuKind::Divider, 0, 3));
  Mrt.remove(Opcode::FloatDiv, FuKind::Divider, 0, 2);
  EXPECT_TRUE(Mrt.canPlace(Opcode::IntDiv, FuKind::Divider, 0, 10));
}

TEST(ModuloResourceTable, ReservationLongerThanIIRejected) {
  const MachineModel M = MachineModel::cydra5();
  ModuloResourceTable Mrt(M, 16);
  // A 17-cycle divide cannot fit at II=16: it would collide with its own
  // next-iteration instance.
  EXPECT_FALSE(Mrt.canPlace(Opcode::FloatDiv, FuKind::Divider, 0, 0));
}

TEST(ModuloResourceTable, NegativeCyclesWrapCorrectly) {
  const MachineModel M = MachineModel::cydra5();
  ModuloResourceTable Mrt(M, 4);
  Mrt.place(Opcode::FloatAdd, FuKind::Adder, 0, -1); // == cycle 3 mod 4
  EXPECT_FALSE(Mrt.canPlace(Opcode::FloatAdd, FuKind::Adder, 0, 3));
  EXPECT_EQ(Mrt.occupancy(FuKind::Adder, 0, 3), 1);
}

TEST(ModuloResourceTable, ClearDropsEverything) {
  const MachineModel M = MachineModel::cydra5();
  ModuloResourceTable Mrt(M, 3);
  Mrt.place(Opcode::Load, FuKind::MemoryPort, 0, 1);
  Mrt.clear();
  EXPECT_TRUE(Mrt.canPlace(Opcode::Load, FuKind::MemoryPort, 0, 1));
}

TEST(ModuloResourceTable, OverlapRuleMatchesCycleByCycleCheck) {
  // Every pair of reservations up to II long, from every pair of issue
  // cycles in [-2*II, 2*II), against the cycle-by-cycle comparison.
  for (int II = 1; II <= 12; ++II) {
    const auto Wrap = [II](int C) { return ((C % II) + II) % II; };
    for (int ResA = 1; ResA <= II; ++ResA)
      for (int ResB = 1; ResB <= II; ++ResB)
        for (int A = -2 * II; A < 2 * II; ++A)
          for (int B = -2 * II; B < 2 * II; ++B) {
            bool Expected = false;
            for (int I = 0; I < ResA && !Expected; ++I)
              for (int J = 0; J < ResB && !Expected; ++J)
                Expected = Wrap(A + I) == Wrap(B + J);
            ASSERT_EQ(moduloReservationsOverlap(II, A, ResA, B, ResB),
                      Expected)
                << "II " << II << " A " << A << "+" << ResA << " B " << B
                << "+" << ResB;
          }
  }
}
