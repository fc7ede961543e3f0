//===----------------------------------------------------------------------===//
///
/// \file
/// The modulo resource table (Section 1): II entries, each tracking which
/// functional-unit instances are reserved at that cycle modulo II. Placing
/// an operation at cycle t commits its unit for cycles t+k*II for all k, so
/// reservations are recorded at t mod II.
///
/// Reservations are stored as bitsets: one row of packed 64-bit words per
/// (FuKind, instance), II bits each. A multi-cycle reservation is at most
/// two contiguous bit ranges (it can wrap once around the II boundary), so
/// conflict checks are a handful of word operations instead of a per-cycle
/// loop — this sits on the innermost branch-and-bound placement path.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_MACHINE_MODULORESOURCETABLE_H
#define LSMS_MACHINE_MODULORESOURCETABLE_H

#include "machine/MachineModel.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace lsms {

/// True when a reservation of \p ResA consecutive cycles from \p CycleA
/// and one of \p ResB cycles from \p CycleB share a cycle modulo \p II:
/// the residue of CycleB - CycleA lies less than ResA cycles after 0 or
/// less than ResB cycles before it. An empty reservation shares nothing.
inline bool moduloReservationsOverlap(int II, int CycleA, int ResA,
                                      int CycleB, int ResB) {
  if (ResA <= 0 || ResB <= 0)
    return false;
  int D = (CycleB - CycleA) % II;
  if (D < 0)
    D += II;
  return D < ResA || D > II - ResB;
}

/// Tracks per-cycle (mod II) reservations of functional-unit instances.
///
/// Operations are pre-assigned to a specific unit instance before scheduling
/// commences (Section 4.3), so a reservation is identified by
/// (FuKind, instance). Non-pipelined operations (divider) reserve
/// `reservationCycles` consecutive cycles; the table rejects placements
/// whose reservation would wrap onto itself (which would mean the operation
/// conflicts with its own next-iteration instance).
class ModuloResourceTable {
public:
  ModuloResourceTable(const MachineModel &Machine, int II);

  int initiationInterval() const { return II; }

  /// True if \p Op (on unit \p Kind instance \p Instance) can be issued at
  /// \p Cycle without a resource conflict.
  bool canPlace(Opcode Op, FuKind Kind, int Instance, int Cycle) const;

  /// Reserves the unit for \p Op at \p Cycle. Must be preceded by a
  /// successful canPlace query.
  void place(Opcode Op, FuKind Kind, int Instance, int Cycle);

  /// Releases the reservation made by place().
  void remove(Opcode Op, FuKind Kind, int Instance, int Cycle);

  /// Returns the operation count currently holding a reservation in the slot
  /// of (\p Kind, \p Instance) at \p Cycle mod II (0 or 1).
  int occupancy(FuKind Kind, int Instance, int Cycle) const;

  /// Drops every reservation.
  void clear();

private:
  const uint64_t *row(FuKind Kind, int Instance) const {
    assert(Kind != FuKind::None && "pseudo-ops take no slots");
    assert(Instance >= 0 && Instance < Machine.unitCount(Kind) &&
           "unit instance out of range");
    return Words.data() +
           static_cast<size_t>(RowBase[static_cast<unsigned>(Kind)] +
                               Instance) *
               WordsPerRow;
  }
  uint64_t *row(FuKind Kind, int Instance) {
    return const_cast<uint64_t *>(
        static_cast<const ModuloResourceTable *>(this)->row(Kind, Instance));
  }

  int wrap(int Cycle) const {
    const int M = Cycle % II;
    return M < 0 ? M + II : M;
  }

  const MachineModel &Machine;
  int II;
  int WordsPerRow;
  std::vector<int> RowBase;    ///< first row index per FuKind
  std::vector<uint64_t> Words; ///< packed reservation bits, II per row
};

} // namespace lsms

#endif // LSMS_MACHINE_MODULORESOURCETABLE_H
