//===----------------------------------------------------------------------===//
///
/// \file
/// The spatial target: an N x M grid of processing elements (PEs) in the
/// SAT-MapIt tradition of coarse-grained reconfigurable arrays. Each PE
/// executes at most one operation per cycle (a single universal issue slot
/// gated by per-PE opcode capabilities), the interconnect is a mesh or
/// torus with a configurable per-hop latency, and each PE can launch a
/// bounded number of remote value transfers per cycle (the routing
/// resource). Models are built from a small line-oriented config grammar
/// (parse) or the heterogeneous defaultGrid preset.
///
/// The grid flattens down to a MachineModel (flatModel) whose unit counts
/// are the capable-PE counts. That machine over-approximates the grid —
/// it ignores that one PE serves several capability classes and that
/// transfers cost hops — so its ResMII/RecMII/MinDist are valid LOWER
/// bounds for the spatial mapping problem, which is exactly what the
/// heuristic ladder and the SAT oracle need to start from.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_CGRA_CGRAMODEL_H
#define LSMS_CGRA_CGRAMODEL_H

#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

namespace lsms {

/// Per-PE capability classes. Coarser than FuKind: a CGRA PE advertises
/// what it can do, not how many copies of a unit it has (always one slot).
enum class PeCap : uint8_t {
  Mem, ///< loads/stores (FuKind::MemoryPort)
  Alu, ///< integer/float add-class + address arithmetic (AddressAlu, Adder)
  Mul, ///< multiplies (FuKind::Multiplier)
  Div, ///< divide/mod/sqrt, non-pipelined (FuKind::Divider)
};

inline constexpr unsigned NumPeCaps = 4;

/// Returns "mem", "alu", "mul", or "div".
const char *peCapName(PeCap Cap);

/// True for unit kinds that occupy a PE issue slot. Branch is loop control
/// (a global sequencer on real CGRAs) and pseudo-ops take no resources;
/// neither is placed on a PE.
inline bool fuKindNeedsPe(FuKind Kind) {
  return Kind != FuKind::None && Kind != FuKind::Branch;
}

/// The PE capability class serving \p Kind. Only valid when
/// fuKindNeedsPe(Kind).
PeCap peCapForFuKind(FuKind Kind);

/// The CGRA target description.
class CgraModel {
public:
  /// An empty (0x0) model; build real ones with parse or defaultGrid.
  CgraModel();

  /// The heterogeneous reference grid used by the benches: mesh, hop
  /// latency 1, route capacity 2/PE/cycle; every PE has alu, column 0 has
  /// mem, the right half has mul, and only the bottom-right PE has div.
  /// Keeping mem and mul on disjoint PEs makes recurrences that mix them
  /// pay interconnect hops — the constraint class a flat machine cannot
  /// express.
  static CgraModel defaultGrid(int Rows, int Cols);

  /// Parses the config grammar. Line-oriented; '#' starts a comment.
  ///
  ///   grid <rows>x<cols> [mesh|torus] [hop=<int>] [route=<int>]
  ///   pe * : <cap>...            # baseline for every PE
  ///   pe <row>,<col> : <cap>...  # override one PE
  ///
  /// Caps: mem alu mul div all. The grid line must come first; pe lines
  /// replace the capability set of the addressed PEs (later lines win).
  /// Without any pe line every PE gets every capability. Returns false
  /// with a diagnostic on bad grid dimensions, an unknown capability,
  /// non-positive route capacity, negative hop latency, or malformed
  /// lines.
  static bool parse(const std::string &Config, CgraModel &Out,
                    std::string &Err);

  /// Parses a "<rows>x<cols>" bench argument into defaultGrid(rows, cols).
  static bool parseGridArg(const std::string &Arg, CgraModel &Out,
                           std::string &Err);

  int rows() const { return Rows; }
  int cols() const { return Cols; }
  int numPes() const { return Rows * Cols; }
  bool isTorus() const { return Torus; }
  int hopLatency() const { return HopLatency; }
  /// Remote value transfers a PE may launch per cycle.
  int routeCapacity() const { return RouteCap; }

  int peId(int Row, int Col) const {
    assert(Row >= 0 && Row < Rows && Col >= 0 && Col < Cols);
    return Row * Cols + Col;
  }
  int peRow(int Pe) const { return PeRows[static_cast<size_t>(Pe)]; }
  int peCol(int Pe) const { return PeCols[static_cast<size_t>(Pe)]; }

  bool hasCap(int Pe, PeCap Cap) const {
    return (Caps[static_cast<size_t>(Pe)] &
            (1u << static_cast<unsigned>(Cap))) != 0;
  }

  /// True when \p Pe can execute \p Op (which must need a PE).
  bool capableOf(int Pe, Opcode Op) const {
    return hasCap(Pe, peCapForFuKind(Base.unitFor(Op)));
  }

  /// Number of PEs advertising \p Cap.
  int capableCount(PeCap Cap) const;

  /// Hop distance between two PEs: Manhattan on the mesh, wrap-around
  /// Manhattan on the torus.
  int hopDistance(int A, int B) const {
    int DR = std::abs(peRow(A) - peRow(B));
    int DC = std::abs(peCol(A) - peCol(B));
    if (Torus) {
      DR = std::min(DR, Rows - DR);
      DC = std::min(DC, Cols - DC);
    }
    return DR + DC;
  }

  /// The PEs one hop from \p Pe (hopDistance 1, \p Pe itself excluded),
  /// ascending, each once.
  std::span<const int> neighbors(int Pe) const {
    const size_t Begin = NeighborBegin[static_cast<size_t>(Pe)];
    return std::span<const int>(Neighbors).subspan(
        Begin, NeighborBegin[static_cast<size_t>(Pe) + 1] - Begin);
  }

  /// Interconnect delay charged to a value moving from \p A to \p B.
  int hopDelay(int A, int B) const { return HopLatency * hopDistance(A, B); }

  /// Base machine supplying opcode latencies and reservation behaviour
  /// (the paper's Table 1 values; one slot per PE).
  const MachineModel &machine() const { return Base; }

  /// The flat over-approximation: unit counts = capable-PE counts (clamped
  /// to 1 so the MachineModel invariants hold even for absent caps —
  /// capableCount is the source of truth for mappability). MII/MinDist on
  /// this machine are valid lower bounds for the spatial problem.
  const MachineModel &flatModel() const { return Flat; }

  /// "4x4 mesh, hop 1, route 2, caps mem=4 alu=16 mul=8 div=1".
  std::string describe() const;

private:
  /// Derives the flat machine and the per-PE geometry (row, column and
  /// neighbour list) from the grid and its capabilities.
  void rebuildDerived();

  int Rows = 0;
  int Cols = 0;
  bool Torus = false;
  int HopLatency = 1;
  int RouteCap = 2;
  std::vector<uint8_t> Caps; ///< capability bitmask per PE
  std::vector<int> PeRows;   ///< row per PE
  std::vector<int> PeCols;   ///< column per PE
  /// One-hop neighbours of PE p at [NeighborBegin[p], NeighborBegin[p + 1]).
  std::vector<int> Neighbors;
  std::vector<size_t> NeighborBegin{0};
  MachineModel Base;
  MachineModel Flat;
};

} // namespace lsms

#endif // LSMS_CGRA_CGRAMODEL_H
