//===----------------------------------------------------------------------===//
/// \file Tests for the CGRA spatial mapping subsystem: config-grammar
/// parsing (positives and negatives), mesh/torus hop distances and
/// one-hop neighbour lists, the flat over-approximation's unit counts,
/// validateMapping rejecting hand-broken mappings, the placement-aware
/// heuristic on the kernel suite, the exact SAT mapper's parity with the
/// heuristic on small grids, and a loop whose certified spatial II sits
/// strictly above the flat MII.
//===----------------------------------------------------------------------===//

#include "cgra/CgraOracle.h"
#include "ir/IRBuilder.h"
#include "workloads/Kernels.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>

using namespace lsms;

namespace {

/// A one-load fan-out loop: t = a(i), then three independent adds of t.
/// Exercises the route model (one producer, several consumer PEs).
LoopBody buildFanOutLoop() {
  LoopBody Body;
  Body.Name = "fanout";
  IRBuilder B(Body);
  const int Arr = B.newArray();
  const int Addr = B.addressStream("addr", 0);
  const int T = B.emitLoad(Arr, 0, Use{Addr, 0}, "t");
  const int C1 = B.invariant("c1", 1.0);
  const int C2 = B.invariant("c2", 2.0);
  const int C3 = B.invariant("c3", 3.0);
  const int X1 = B.emitValue(Opcode::FloatAdd, {Use{T, 0}, Use{C1, 0}}, "x1");
  const int X2 = B.emitValue(Opcode::FloatAdd, {Use{T, 0}, Use{C2, 0}}, "x2");
  const int X3 = B.emitValue(Opcode::FloatAdd, {Use{T, 0}, Use{C3, 0}}, "x3");
  B.markLiveOut(X1);
  B.markLiveOut(X2);
  B.markLiveOut(X3);
  B.finish();
  return Body;
}

int opByName(const LoopBody &Body, const std::string &Name) {
  for (const Operation &Op : Body.Ops)
    if (Op.Name == Name)
      return Op.Id;
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Model: parsing, hop geometry, flattening
//===----------------------------------------------------------------------===//

TEST(CgraModel, DefaultGridCapabilities) {
  const CgraModel Cgra = CgraModel::defaultGrid(4, 4);
  EXPECT_EQ(Cgra.rows(), 4);
  EXPECT_EQ(Cgra.cols(), 4);
  EXPECT_EQ(Cgra.numPes(), 16);
  EXPECT_FALSE(Cgra.isTorus());
  EXPECT_EQ(Cgra.hopLatency(), 1);
  EXPECT_EQ(Cgra.routeCapacity(), 2);
  // Column 0 has mem, every PE has alu, the right half has mul, only the
  // bottom-right corner divides.
  EXPECT_EQ(Cgra.capableCount(PeCap::Mem), 4);
  EXPECT_EQ(Cgra.capableCount(PeCap::Alu), 16);
  EXPECT_EQ(Cgra.capableCount(PeCap::Mul), 8);
  EXPECT_EQ(Cgra.capableCount(PeCap::Div), 1);
  EXPECT_TRUE(Cgra.hasCap(Cgra.peId(0, 0), PeCap::Mem));
  EXPECT_FALSE(Cgra.hasCap(Cgra.peId(0, 1), PeCap::Mem));
  EXPECT_TRUE(Cgra.hasCap(Cgra.peId(3, 3), PeCap::Div));
  EXPECT_FALSE(Cgra.hasCap(Cgra.peId(0, 0), PeCap::Div));
  EXPECT_FALSE(Cgra.describe().empty());
}

TEST(CgraModel, ParseGrammarPositive) {
  const std::string Config = "# reference grid\n"
                             "grid 2x3 torus hop=2 route=1\n"
                             "pe * : alu\n"
                             "pe 0,0 : mem alu\n"
                             "pe 1,2 : all\n";
  CgraModel Cgra;
  std::string Err;
  ASSERT_TRUE(CgraModel::parse(Config, Cgra, Err)) << Err;
  EXPECT_EQ(Cgra.rows(), 2);
  EXPECT_EQ(Cgra.cols(), 3);
  EXPECT_TRUE(Cgra.isTorus());
  EXPECT_EQ(Cgra.hopLatency(), 2);
  EXPECT_EQ(Cgra.routeCapacity(), 1);
  EXPECT_EQ(Cgra.capableCount(PeCap::Mem), 2);  // (0,0) and the all-PE
  EXPECT_EQ(Cgra.capableCount(PeCap::Alu), 6);
  EXPECT_EQ(Cgra.capableCount(PeCap::Mul), 1);
  EXPECT_EQ(Cgra.capableCount(PeCap::Div), 1);
  EXPECT_TRUE(Cgra.hasCap(Cgra.peId(1, 2), PeCap::Div));
  EXPECT_FALSE(Cgra.hasCap(Cgra.peId(0, 1), PeCap::Mem));
}

TEST(CgraModel, ParseGrammarNegatives) {
  CgraModel Cgra;
  std::string Err;
  // Bad grid dimensions.
  EXPECT_FALSE(CgraModel::parse("grid 0x4\n", Cgra, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(CgraModel::parse("grid axb\n", Cgra, Err));
  EXPECT_FALSE(CgraModel::parse("grid 65x1\n", Cgra, Err));
  // Unknown capability.
  EXPECT_FALSE(CgraModel::parse("grid 2x2\npe * : frob\n", Cgra, Err));
  EXPECT_FALSE(Err.empty());
  // Zero routing capacity.
  EXPECT_FALSE(CgraModel::parse("grid 2x2 route=0\n", Cgra, Err));
  EXPECT_FALSE(Err.empty());
  // pe line before the grid line, and a config with no grid at all.
  EXPECT_FALSE(CgraModel::parse("pe 0,0 : alu\ngrid 2x2\n", Cgra, Err));
  EXPECT_FALSE(CgraModel::parse("# nothing here\n", Cgra, Err));
  // Unknown attribute on the grid line.
  EXPECT_FALSE(CgraModel::parse("grid 2x2 ring\n", Cgra, Err));
}

TEST(CgraModel, ParseGridArg) {
  CgraModel Cgra;
  std::string Err;
  ASSERT_TRUE(CgraModel::parseGridArg("3x5", Cgra, Err)) << Err;
  EXPECT_EQ(Cgra.rows(), 3);
  EXPECT_EQ(Cgra.cols(), 5);
  EXPECT_FALSE(CgraModel::parseGridArg("4", Cgra, Err));
  EXPECT_FALSE(CgraModel::parseGridArg("0x3", Cgra, Err));
  EXPECT_FALSE(CgraModel::parseGridArg("axb", Cgra, Err));
}

TEST(CgraModel, HopDistanceMeshVsTorus) {
  const CgraModel Mesh = CgraModel::defaultGrid(4, 4);
  const int A = Mesh.peId(0, 0), B = Mesh.peId(3, 3);
  EXPECT_EQ(Mesh.hopDistance(A, A), 0);
  EXPECT_EQ(Mesh.hopDistance(A, B), 6);
  EXPECT_EQ(Mesh.hopDistance(B, A), 6);
  EXPECT_EQ(Mesh.hopDelay(A, B), 6);

  CgraModel Torus;
  std::string Err;
  ASSERT_TRUE(
      CgraModel::parse("grid 4x4 torus hop=2\npe * : all\n", Torus, Err))
      << Err;
  // Opposite corners are one wrap-around step per axis on the torus.
  EXPECT_EQ(Torus.hopDistance(A, B), 2);
  EXPECT_EQ(Torus.hopDelay(A, B), 4);
}

TEST(CgraModel, NeighborListsAreTheOneHopPes) {
  // Test-local distance: Manhattan on the mesh, each axis wrapping on the
  // torus, from row-major PE ids.
  auto Reference = [](int Rows, int Cols, bool Torus, int A, int B) {
    int DR = std::abs(A / Cols - B / Cols);
    int DC = std::abs(A % Cols - B % Cols);
    if (Torus) {
      DR = std::min(DR, Rows - DR);
      DC = std::min(DC, Cols - DC);
    }
    return DR + DC;
  };
  const int Dims[][2] = {{1, 1}, {1, 4}, {2, 2}, {3, 5}, {4, 4}, {64, 64}};
  for (const auto &[Rows, Cols] : Dims) {
    for (const bool Torus : {false, true}) {
      const std::string Config = "grid " + std::to_string(Rows) + "x" +
                                 std::to_string(Cols) +
                                 (Torus ? " torus" : " mesh") + "\n";
      CgraModel Cgra;
      std::string Err;
      ASSERT_TRUE(CgraModel::parse(Config, Cgra, Err)) << Err;
      const bool Small = Rows * Cols <= 16;
      for (int P = 0; P < Cgra.numPes(); ++P) {
        std::vector<int> Expected;
        for (int Q = 0; Q < Cgra.numPes(); ++Q) {
          if (Small) {
            ASSERT_EQ(Cgra.hopDistance(P, Q),
                      Reference(Rows, Cols, Torus, P, Q))
                << Config << "PEs " << P << ", " << Q;
          }
          if (Q != P && Cgra.hopDistance(P, Q) == 1)
            Expected.push_back(Q);
        }
        const std::span<const int> Got = Cgra.neighbors(P);
        ASSERT_EQ(std::vector<int>(Got.begin(), Got.end()), Expected)
            << Config << "PE " << P;
      }
    }
  }

  // On a 2-wide torus the horizontal neighbour is one step left and one
  // step right, and is listed once.
  CgraModel Torus;
  std::string Err;
  ASSERT_TRUE(CgraModel::parse("grid 3x2 torus\n", Torus, Err)) << Err;
  const std::span<const int> Row0 = Torus.neighbors(Torus.peId(0, 0));
  EXPECT_EQ(std::vector<int>(Row0.begin(), Row0.end()),
            (std::vector<int>{Torus.peId(0, 1), Torus.peId(1, 0),
                              Torus.peId(2, 0)}));
}

TEST(CgraModel, FlattenedUnitCountsAreCapablePeCounts) {
  const CgraModel Cgra = CgraModel::defaultGrid(2, 2);
  // mem on column 0 (2 PEs), alu everywhere (4), mul on column 1 (2),
  // div only bottom-right (1).
  const MachineModel &Flat = Cgra.flatModel();
  EXPECT_EQ(Flat.unitCount(FuKind::MemoryPort), 2);
  EXPECT_EQ(Flat.unitCount(FuKind::Adder), 4);
  EXPECT_EQ(Flat.unitCount(FuKind::AddressAlu), 4);
  EXPECT_EQ(Flat.unitCount(FuKind::Multiplier), 2);
  EXPECT_EQ(Flat.unitCount(FuKind::Divider), 1);
}

//===----------------------------------------------------------------------===//
// validateMapping: hand-broken mappings must be rejected
//===----------------------------------------------------------------------===//

TEST(CgraValidate, AcceptsHeuristicMappingAndRejectsCorruptions) {
  const CgraModel Cgra = CgraModel::defaultGrid(4, 4);
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph(Body, Cgra.flatModel());
  const CgraMapping Map = mapLoopCgra(Graph, Cgra);
  ASSERT_TRUE(Map.Success);
  ASSERT_EQ(validateMapping(Graph, Cgra, Map), "");

  // Two time-ops forced onto one PE in the same modulo slot.
  {
    CgraMapping Broken = Map;
    int First = -1;
    for (int Op = 0; Op < Graph.numOps(); ++Op) {
      if (Broken.Pes[static_cast<size_t>(Op)] < 0)
        continue;
      if (First < 0) {
        First = Op;
        continue;
      }
      Broken.Pes[static_cast<size_t>(Op)] =
          Broken.Pes[static_cast<size_t>(First)];
      Broken.Times[static_cast<size_t>(Op)] =
          Broken.Times[static_cast<size_t>(First)];
      break;
    }
    EXPECT_NE(validateMapping(Graph, Cgra, Broken), "");
  }

  // A load moved to a PE with no memory port (column 0 is the only mem
  // column on the default grid).
  {
    CgraMapping Broken = Map;
    const int Load = opByName(Body, "lx");
    ASSERT_GE(Load, 0);
    Broken.Pes[static_cast<size_t>(Load)] = Cgra.peId(0, 3);
    EXPECT_NE(validateMapping(Graph, Cgra, Broken), "");
  }

  // A dependence arc broken by pushing a producer past its consumer.
  {
    CgraMapping Broken = Map;
    const int Load = opByName(Body, "lx");
    Broken.Times[static_cast<size_t>(Load)] += 1000;
    EXPECT_NE(validateMapping(Graph, Cgra, Broken), "");
  }

  // Structurally bad containers.
  {
    CgraMapping Broken = Map;
    Broken.II = 0;
    EXPECT_NE(validateMapping(Graph, Cgra, Broken), "");
    Broken = Map;
    Broken.Pes.pop_back();
    EXPECT_NE(validateMapping(Graph, Cgra, Broken), "");
  }
}

TEST(CgraValidate, RouteOverflowIsDetected) {
  CgraModel Cgra;
  std::string Err;
  ASSERT_TRUE(
      CgraModel::parse("grid 2x2 mesh route=1\npe * : all\n", Cgra, Err))
      << Err;
  const LoopBody Body = buildFanOutLoop();
  const DepGraph Graph(Body, Cgra.flatModel());
  const CgraMapping Map = mapLoopCgra(Graph, Cgra);
  ASSERT_TRUE(Map.Success);
  ASSERT_EQ(validateMapping(Graph, Cgra, Map), "");

  // Scatter the three adds across the three PEs the load does not sit on:
  // all three transfers leave the load's PE at one departure residue,
  // overflowing route capacity 1.
  CgraMapping Broken = Map;
  const int Load = opByName(Body, "t");
  ASSERT_GE(Load, 0);
  const int LoadPe = Broken.Pes[static_cast<size_t>(Load)];
  int Next = 0;
  for (const char *Name : {"x1", "x2", "x3"}) {
    const int Add = opByName(Body, Name);
    ASSERT_GE(Add, 0);
    while (Next == LoadPe)
      ++Next;
    Broken.Pes[static_cast<size_t>(Add)] = Next++;
  }
  std::vector<int> Counts;
  int OverPe = -1, OverResidue = -1;
  EXPECT_FALSE(countRouteUse(Graph, Cgra, Broken.Times, Broken.Pes,
                             Broken.II, Counts, &OverPe, &OverResidue));
  EXPECT_EQ(OverPe, LoadPe);
  EXPECT_NE(validateMapping(Graph, Cgra, Broken), "");
}

//===----------------------------------------------------------------------===//
// Mappers: heuristic on the kernel suite, exact parity, binding grids
//===----------------------------------------------------------------------===//

TEST(CgraMapper, KernelSuiteMapsAndValidatesOn4x4) {
  const CgraModel Cgra = CgraModel::defaultGrid(4, 4);
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, Cgra.flatModel());
    const CgraMapping Map = mapLoopCgra(Graph, Cgra);
    ASSERT_TRUE(Map.Success) << Body.Name;
    EXPECT_EQ(validateMapping(Graph, Cgra, Map), "") << Body.Name;
    EXPECT_GE(Map.II, Map.MII) << Body.Name;
  }
}

TEST(CgraExact, ParityAndDeterminismOnSmallGrid) {
  CgraOracleOptions Options;
  Options.NumLoops = 12;
  Options.MinOps = 3;
  Options.MaxOps = 8;
  Options.Cgra = CgraModel::defaultGrid(2, 2);
  Options.IncludeKernels = false;

  const CgraOracleReport A = runCgraOracle(Options);
  EXPECT_EQ(A.ValidationFailures, 0);
  EXPECT_EQ(A.ParityViolations, 0);
  EXPECT_EQ(A.failures(), 0);
  EXPECT_EQ(static_cast<int>(A.Cases.size()), 12);
  for (const CgraOracleCase &Case : A.Cases) {
    if (Case.Status == ExactStatus::Optimal && Case.HeurSuccess) {
      EXPECT_GE(Case.HeurII, Case.ExactII) << Case.Name;
    }
  }

  // Bit-for-bit determinism, including across job counts.
  Options.Jobs = 3;
  const CgraOracleReport B = runCgraOracle(Options);
  ASSERT_EQ(A.Cases.size(), B.Cases.size());
  for (size_t I = 0; I < A.Cases.size(); ++I) {
    EXPECT_EQ(A.Cases[I].HeurII, B.Cases[I].HeurII) << I;
    EXPECT_EQ(A.Cases[I].ExactII, B.Cases[I].ExactII) << I;
    EXPECT_EQ(A.Cases[I].Status, B.Cases[I].Status) << I;
    EXPECT_EQ(A.Cases[I].FlatMII, B.Cases[I].FlatMII) << I;
  }
}

TEST(CgraExact, SinglePeGridCertifiesSpatialIIAboveFlatMII) {
  // On a 1x1 grid the single PE serializes every operation, while the
  // flat over-approximation still sees one unit per kind — so daxpy's
  // certified spatial II must sit strictly above the flat MII.
  const CgraModel Cgra = CgraModel::defaultGrid(1, 1);
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph(Body, Cgra.flatModel());

  const CgraExactResult Exact = mapLoopCgraExact(Graph, Cgra);
  ASSERT_EQ(Exact.Status, ExactStatus::Optimal);
  EXPECT_EQ(validateMapping(Graph, Cgra, Exact.Map), "");
  EXPECT_GT(Exact.Map.II, Exact.Map.MII);
  // One PE, one op per cycle: the II can never undercut the op count.
  EXPECT_GE(Exact.Map.II, Body.numMachineOps() - 1); // brtop is not placed

  const CgraMapping Heur = mapLoopCgra(Graph, Cgra);
  ASSERT_TRUE(Heur.Success);
  EXPECT_EQ(validateMapping(Graph, Cgra, Heur), "");
  EXPECT_GE(Heur.II, Exact.Map.II);
}
