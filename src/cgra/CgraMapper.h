//===----------------------------------------------------------------------===//
///
/// \file
/// Placement-aware modulo scheduling onto a CgraModel: the paper's
/// lifetime-sensitive slack heuristic extended from (op -> time) to
/// (op -> time, PE). The issue-time machinery is unchanged — static slack
/// priorities from the flat MinDist relation, a modulo time window per
/// operation, lifetime-sensitive scan direction, ejection with a budget,
/// geometric II escalation — but every candidate now also names a PE, and
/// legality charges interconnect hops to register-flow dependences whose
/// producer and consumer land on different PEs, bounds each PE to one
/// operation per modulo slot, and caps remote transfers per (PE, cycle).
///
/// validateMapping is the independent legality checker the differential
/// harness trusts: it re-derives every constraint from the graph and the
/// grid, sharing no code with the mapper's feasibility tests beyond the
/// route-counting helper.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_CGRA_CGRAMAPPER_H
#define LSMS_CGRA_CGRAMAPPER_H

#include "cgra/CgraModel.h"
#include "ir/DepGraph.h"

#include <string>
#include <vector>

namespace lsms {

/// A spatial modulo schedule: issue time and PE per operation.
struct CgraMapping {
  bool Success = false;
  int II = 0;
  /// Flat-machine MII of the loop (a valid lower bound for the spatial II).
  int MII = 0;
  /// Issue time per op (Start/Stop materialized; indexed by op id).
  std::vector<int> Times;
  /// PE per op; -1 for Start/Stop/brtop (nothing occupying a PE slot).
  std::vector<int> Pes;
  long Ejections = 0;
  int Attempts = 0; ///< II rungs tried
};

/// Maps \p Graph (built over Cgra.flatModel()) onto the grid, on the flat
/// slack scheduler's II ladder (4% steps up to IICapPolicy's cap) with its
/// ejection budget (16 per op per attempt). On failure (capability hole or
/// II cap exhausted) returns Success == false with MII/Attempts still
/// filled in.
CgraMapping mapLoopCgra(const DepGraph &Graph, const CgraModel &Cgra);

/// Checks a mapping against every spatial constraint: PE range and opcode
/// capability, one op per PE per modulo slot (reservation cycles included),
/// every dependence arc satisfied with hop delay charged to cross-PE
/// register flow, and per-(PE, cycle) route capacity. Returns "" when
/// legal, else a description of the first violation.
std::string validateMapping(const DepGraph &Graph, const CgraModel &Cgra,
                            const CgraMapping &Map);

/// Hop delay charged to arc \p Arc when its endpoints sit on PEs \p SrcPe
/// and \p DstPe (-1 = not placed): only register flow between two distinct
/// placed PEs pays interconnect latency; memory-ordering and control arcs
/// never route a value.
int arcHopDelay(const CgraModel &Cgra, const DepArc &Arc, int SrcPe,
                int DstPe);

/// Counts remote transfers per (PE, departure residue) into \p Counts
/// (size numPes * II, row-major by PE). A transfer is one producer op
/// sending to one distinct destination PE (fan-out to several consumers on
/// the same PE is a single transfer); it departs the producer's PE at
/// residue (time + latency) mod II. Returns false when some slot exceeds
/// Cgra.routeCapacity(), filling \p OverPe / \p OverResidue.
bool countRouteUse(const DepGraph &Graph, const CgraModel &Cgra,
                   const std::vector<int> &Times, const std::vector<int> &Pes,
                   int II, std::vector<int> &Counts, int *OverPe = nullptr,
                   int *OverResidue = nullptr);

} // namespace lsms

#endif // LSMS_CGRA_CGRAMAPPER_H
