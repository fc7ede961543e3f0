#include "cgra/CgraMapper.h"

#include "bounds/Bounds.h"
#include "core/IICapPolicy.h"
#include "graph/MinDist.h"

#include <algorithm>
#include <array>
#include <climits>
#include <sstream>

using namespace lsms;

int lsms::arcHopDelay(const CgraModel &Cgra, const DepArc &Arc, int SrcPe,
                      int DstPe) {
  if (Arc.Value < 0 || SrcPe < 0 || DstPe < 0 || SrcPe == DstPe)
    return 0;
  return Cgra.hopDelay(SrcPe, DstPe);
}

namespace {

/// The flat slack scheduler's II ladder and ejection budget: II grows by
/// max(II * 4 / 100, 1) up to IICapPolicy's cap, and each attempt may
/// eject 16 times per timed op.
constexpr int IIIncrementPct = 4;
constexpr long EjectionBudgetPerOp = 16;

int safeMod(long T, int II) {
  return static_cast<int>(((T % II) + II) % II);
}

} // namespace

bool lsms::countRouteUse(const DepGraph &Graph, const CgraModel &Cgra,
                         const std::vector<int> &Times,
                         const std::vector<int> &Pes, int II,
                         std::vector<int> &Counts, int *OverPe,
                         int *OverResidue) {
  const int NumPes = Cgra.numPes();
  Counts.assign(static_cast<size_t>(NumPes) * static_cast<size_t>(II), 0);
  std::vector<char> SendsTo(static_cast<size_t>(NumPes), 0);
  bool Ok = true;
  for (int U = 0; U < Graph.numOps(); ++U) {
    if (Pes[static_cast<size_t>(U)] < 0 || Times[static_cast<size_t>(U)] < 0)
      continue;
    const int SrcPe = Pes[static_cast<size_t>(U)];
    std::fill(SendsTo.begin(), SendsTo.end(), 0);
    for (const int ArcId : Graph.succArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Value < 0)
        continue;
      const int DstPe = Pes[static_cast<size_t>(Arc.Dst)];
      if (DstPe < 0 || DstPe == SrcPe ||
          Times[static_cast<size_t>(Arc.Dst)] < 0)
        continue;
      SendsTo[static_cast<size_t>(DstPe)] = 1;
    }
    const int Departure =
        safeMod(Times[static_cast<size_t>(U)] + Graph.latency(U), II);
    for (int Pe = 0; Pe < NumPes; ++Pe) {
      if (!SendsTo[static_cast<size_t>(Pe)])
        continue;
      int &Slot = Counts[static_cast<size_t>(SrcPe) * static_cast<size_t>(II) +
                         static_cast<size_t>(Departure)];
      if (++Slot > Cgra.routeCapacity() && Ok) {
        Ok = false;
        if (OverPe)
          *OverPe = SrcPe;
        if (OverResidue)
          *OverResidue = Departure;
      }
    }
  }
  return Ok;
}

std::string lsms::validateMapping(const DepGraph &Graph, const CgraModel &Cgra,
                                  const CgraMapping &Map) {
  const int N = Graph.numOps();
  const MachineModel &M = Cgra.machine();
  std::ostringstream OS;
  if (Map.II < 1) {
    OS << "II " << Map.II << " < 1";
    return OS.str();
  }
  if (static_cast<int>(Map.Times.size()) != N ||
      static_cast<int>(Map.Pes.size()) != N)
    return "mapping arrays do not cover every operation";

  // PE range + capability; non-placed ops must carry no PE.
  for (int U = 0; U < N; ++U) {
    const Opcode Opc = Graph.body().op(U).Opc;
    const int Pe = Map.Pes[static_cast<size_t>(U)];
    if (fuKindNeedsPe(M.unitFor(Opc))) {
      if (Pe < 0 || Pe >= Cgra.numPes()) {
        OS << "op " << U << " placed on PE " << Pe << " outside the "
           << Cgra.rows() << "x" << Cgra.cols() << " grid";
        return OS.str();
      }
      if (!Cgra.capableOf(Pe, Opc)) {
        OS << "op " << U << " (" << opcodeName(Opc) << ") on PE " << Pe
           << " lacking the " << peCapName(peCapForFuKind(M.unitFor(Opc)))
           << " capability";
        return OS.str();
      }
    } else if (Pe != -1) {
      OS << "op " << U << " takes no PE slot but is placed on PE " << Pe;
      return OS.str();
    }
  }

  // One op per PE per modulo slot, reservation cycles included.
  std::vector<int> Owner(
      static_cast<size_t>(Cgra.numPes()) * static_cast<size_t>(Map.II), -1);
  for (int U = 0; U < N; ++U) {
    const int Pe = Map.Pes[static_cast<size_t>(U)];
    if (Pe < 0)
      continue;
    const int Res = M.reservationCycles(Graph.body().op(U).Opc);
    if (Res > Map.II) {
      OS << "op " << U << " reserves its PE for " << Res
         << " cycles, wrapping at II " << Map.II;
      return OS.str();
    }
    for (int K = 0; K < Res; ++K) {
      const int R = safeMod(Map.Times[static_cast<size_t>(U)] + K, Map.II);
      int &Slot = Owner[static_cast<size_t>(Pe) * static_cast<size_t>(Map.II) +
                        static_cast<size_t>(R)];
      if (Slot >= 0) {
        OS << "ops " << Slot << " and " << U << " both occupy PE " << Pe
           << " at residue " << R;
        return OS.str();
      }
      Slot = U;
    }
  }

  // Every dependence arc, with hop delay on cross-PE register flow.
  for (const DepArc &Arc : Graph.arcs()) {
    const int Hop = arcHopDelay(Cgra, Arc, Map.Pes[static_cast<size_t>(Arc.Src)],
                                Map.Pes[static_cast<size_t>(Arc.Dst)]);
    const long Need = static_cast<long>(Map.Times[static_cast<size_t>(Arc.Src)]) +
                      Arc.Latency + Hop -
                      static_cast<long>(Arc.Omega) * Map.II;
    if (Map.Times[static_cast<size_t>(Arc.Dst)] < Need) {
      OS << "arc " << Arc.Src << " -> " << Arc.Dst << " (latency "
         << Arc.Latency << " + hop " << Hop << ", omega " << Arc.Omega
         << ") violated: time " << Map.Times[static_cast<size_t>(Arc.Dst)]
         << " < " << Need;
      return OS.str();
    }
  }

  // Route capacity.
  std::vector<int> Counts;
  int OverPe = -1, OverR = -1;
  if (!countRouteUse(Graph, Cgra, Map.Times, Map.Pes, Map.II, Counts, &OverPe,
                     &OverR)) {
    OS << "route capacity " << Cgra.routeCapacity() << " exceeded on PE "
       << OverPe << " at residue " << OverR;
    return OS.str();
  }
  return std::string();
}

namespace {

/// One II attempt's mutable state for the ejection-based central loop.
class MapAttempt {
public:
  MapAttempt(const DepGraph &Graph, const CgraModel &Cgra, int II,
             const std::vector<long> &Estart, const std::vector<long> &Slack,
             const std::vector<std::vector<int>> &AllowedPes, long Budget)
      : Graph(Graph), Cgra(Cgra), M(Cgra.machine()), II(II), Estart(Estart),
        Slack(Slack), AllowedPes(AllowedPes), Budget(Budget),
        N(Graph.numOps()), Times(static_cast<size_t>(N), -1),
        Pes(static_cast<size_t>(N), -1),
        Scheduled(static_cast<size_t>(N), 0),
        PrevTime(static_cast<size_t>(N), LONG_MIN / 4),
        Owner(static_cast<size_t>(Cgra.numPes()) * static_cast<size_t>(II),
              -1) {}

  /// Runs the central loop over \p TimeOps; true when every op lands
  /// within the ejection budget.
  bool run(const std::vector<int> &TimeOps) {
    std::vector<char> Pending(static_cast<size_t>(N), 0);
    long NumPending = 0;
    for (const int U : TimeOps) {
      Pending[static_cast<size_t>(U)] = 1;
      ++NumPending;
    }
    while (NumPending > 0) {
      // Highest priority = smallest (slack, id) among pending ops.
      int U = -1;
      for (const int Cand : TimeOps)
        if (Pending[static_cast<size_t>(Cand)] &&
            (U < 0 || Slack[static_cast<size_t>(Cand)] <
                          Slack[static_cast<size_t>(U)]))
          U = Cand;
      Pending[static_cast<size_t>(U)] = 0;
      --NumPending;
      if (!placeOp(U, Pending, NumPending))
        return false;
    }
    return true;
  }

  const std::vector<int> &times() const { return Times; }
  const std::vector<int> &pes() const { return Pes; }
  long ejections() const { return Ejections; }

private:
  bool needsPe(int U) const {
    return fuKindNeedsPe(M.unitFor(Graph.body().op(U).Opc));
  }
  int resCycles(int U) const {
    return M.reservationCycles(Graph.body().op(U).Opc);
  }
  int &ownerSlot(int Pe, long T) {
    return Owner[static_cast<size_t>(Pe) * static_cast<size_t>(II) +
                 static_cast<size_t>(safeMod(T, II))];
  }

  /// Dependence feasibility of u at (t, pe) against scheduled neighbors.
  bool depsOk(int U, long T, int Pe) const {
    for (const int ArcId : Graph.predArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Src == U || !Scheduled[static_cast<size_t>(Arc.Src)])
        continue;
      const int Hop =
          arcHopDelay(Cgra, Arc, Pes[static_cast<size_t>(Arc.Src)], Pe);
      if (T < Times[static_cast<size_t>(Arc.Src)] + Arc.Latency + Hop -
                  static_cast<long>(Arc.Omega) * II)
        return false;
    }
    for (const int ArcId : Graph.succArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Dst == U || !Scheduled[static_cast<size_t>(Arc.Dst)])
        continue;
      const int Hop =
          arcHopDelay(Cgra, Arc, Pe, Pes[static_cast<size_t>(Arc.Dst)]);
      if (Times[static_cast<size_t>(Arc.Dst)] <
          T + Arc.Latency + Hop - static_cast<long>(Arc.Omega) * II)
        return false;
    }
    return true;
  }

  bool slotFree(int U, long T, int Pe) const {
    const int Res = resCycles(U);
    for (int K = 0; K < Res; ++K)
      if (Owner[static_cast<size_t>(Pe) * static_cast<size_t>(II) +
                static_cast<size_t>(safeMod(T + K, II))] >= 0)
        return false;
    return true;
  }

  bool routeOk(int U, long T, int Pe) {
    Times[static_cast<size_t>(U)] = static_cast<int>(T);
    Pes[static_cast<size_t>(U)] = Pe;
    const bool Ok =
        countRouteUse(Graph, Cgra, Times, Pes, II, RouteScratch);
    Times[static_cast<size_t>(U)] = -1;
    Pes[static_cast<size_t>(U)] = -1;
    return Ok;
  }

  /// Placement score: total hop delay to already-placed register-flow
  /// neighbors, then own occupancy, then adjacent-PE occupancy, then the
  /// PE index for determinism. Smaller is better.
  std::array<long, 4> peScore(int U, int Pe) const {
    long HopCost = 0;
    for (const int ArcId : Graph.predArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Value >= 0 && Arc.Src != U &&
          Scheduled[static_cast<size_t>(Arc.Src)] &&
          Pes[static_cast<size_t>(Arc.Src)] >= 0)
        HopCost += Cgra.hopDelay(Pes[static_cast<size_t>(Arc.Src)], Pe);
    }
    for (const int ArcId : Graph.succArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Value >= 0 && Arc.Dst != U &&
          Scheduled[static_cast<size_t>(Arc.Dst)] &&
          Pes[static_cast<size_t>(Arc.Dst)] >= 0)
        HopCost += Cgra.hopDelay(Pe, Pes[static_cast<size_t>(Arc.Dst)]);
    }
    long Own = 0;
    for (int R = 0; R < II; ++R)
      if (Owner[static_cast<size_t>(Pe) * static_cast<size_t>(II) +
                static_cast<size_t>(R)] >= 0)
        ++Own;
    long Neighbor = 0;
    for (const int Q : Cgra.neighbors(Pe)) {
      for (int R = 0; R < II; ++R)
        if (Owner[static_cast<size_t>(Q) * static_cast<size_t>(II) +
                  static_cast<size_t>(R)] >= 0)
          ++Neighbor;
    }
    return {HopCost, Own, Neighbor, Pe};
  }

  void commit(int U, long T, int Pe) {
    Times[static_cast<size_t>(U)] = static_cast<int>(T);
    Pes[static_cast<size_t>(U)] = Pe;
    Scheduled[static_cast<size_t>(U)] = 1;
    PrevTime[static_cast<size_t>(U)] = T;
    if (Pe >= 0)
      for (int K = 0, Res = resCycles(U); K < Res; ++K)
        ownerSlot(Pe, T + K) = U;
  }

  void eject(int V, std::vector<char> &Pending, long &NumPending) {
    const int Pe = Pes[static_cast<size_t>(V)];
    if (Pe >= 0)
      for (int K = 0, Res = resCycles(V); K < Res; ++K) {
        int &Slot = ownerSlot(Pe, Times[static_cast<size_t>(V)] + K);
        if (Slot == V)
          Slot = -1;
      }
    Times[static_cast<size_t>(V)] = -1;
    Pes[static_cast<size_t>(V)] = -1;
    Scheduled[static_cast<size_t>(V)] = 0;
    if (!Pending[static_cast<size_t>(V)]) {
      Pending[static_cast<size_t>(V)] = 1;
      ++NumPending;
    }
    ++Ejections;
  }

  /// Lifetime-sensitive scan direction (Section 5.2 adapted to placement):
  /// when more register-flow consumers than producers are already placed,
  /// issue as late as possible to shorten the op's outgoing lifetimes.
  bool scanLate(int U) const {
    int Producers = 0, Consumers = 0;
    for (const int ArcId : Graph.predArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Value >= 0 && Arc.Src != U &&
          Scheduled[static_cast<size_t>(Arc.Src)])
        ++Producers;
    }
    for (const int ArcId : Graph.succArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Value >= 0 && Arc.Dst != U &&
          Scheduled[static_cast<size_t>(Arc.Dst)])
        ++Consumers;
    }
    return Consumers > Producers;
  }

  bool placeOp(int U, std::vector<char> &Pending, long &NumPending) {
    long EstartDyn = Estart[static_cast<size_t>(U)];
    for (const int ArcId : Graph.predArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Src == U || !Scheduled[static_cast<size_t>(Arc.Src)])
        continue;
      EstartDyn =
          std::max(EstartDyn, Times[static_cast<size_t>(Arc.Src)] +
                                  static_cast<long>(Arc.Latency) -
                                  static_cast<long>(Arc.Omega) * II);
    }

    const bool Late = scanLate(U);
    for (int Step = 0; Step < II; ++Step) {
      const long T = Late ? EstartDyn + II - 1 - Step : EstartDyn + Step;
      if (T < EstartDyn)
        continue;
      if (!needsPe(U)) {
        if (!depsOk(U, T, -1))
          continue;
        commit(U, T, -1);
        return true;
      }
      int BestPe = -1;
      std::array<long, 4> BestScore{};
      for (const int Pe : AllowedPes[static_cast<size_t>(U)]) {
        if (!slotFree(U, T, Pe) || !depsOk(U, T, Pe) || !routeOk(U, T, Pe))
          continue;
        const std::array<long, 4> Score = peScore(U, Pe);
        if (BestPe < 0 || Score < BestScore) {
          BestPe = Pe;
          BestScore = Score;
        }
      }
      if (BestPe >= 0) {
        commit(U, T, BestPe);
        return true;
      }
    }
    return placeForced(U, EstartDyn, Pending, NumPending);
  }

  bool placeForced(int U, long EstartDyn, std::vector<char> &Pending,
                   long &NumPending) {
    const long T =
        std::max(EstartDyn, PrevTime[static_cast<size_t>(U)] + 1);
    int Pe = -1;
    if (needsPe(U)) {
      std::array<long, 4> BestScore{};
      for (const int Cand : AllowedPes[static_cast<size_t>(U)]) {
        const std::array<long, 4> Score = peScore(U, Cand);
        if (Pe < 0 || Score < BestScore) {
          Pe = Cand;
          BestScore = Score;
        }
      }
    }

    // Displace the occupants of the claimed slots, then every scheduled op
    // whose dependence on/from u breaks, then route-overflow contributors;
    // only constraints involving u can have gone bad.
    if (Pe >= 0)
      for (int K = 0, Res = resCycles(U); K < Res; ++K) {
        const int V = ownerSlot(Pe, T + K);
        if (V >= 0)
          eject(V, Pending, NumPending);
      }
    commit(U, T, Pe);
    if (Ejections > Budget)
      return false;

    for (const int ArcId : Graph.predArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Src == U || !Scheduled[static_cast<size_t>(Arc.Src)])
        continue;
      const int Hop =
          arcHopDelay(Cgra, Arc, Pes[static_cast<size_t>(Arc.Src)], Pe);
      if (T < Times[static_cast<size_t>(Arc.Src)] + Arc.Latency + Hop -
                  static_cast<long>(Arc.Omega) * II)
        eject(Arc.Src, Pending, NumPending);
    }
    for (const int ArcId : Graph.succArcs(U)) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Arc.Dst == U || !Scheduled[static_cast<size_t>(Arc.Dst)])
        continue;
      const int Hop =
          arcHopDelay(Cgra, Arc, Pe, Pes[static_cast<size_t>(Arc.Dst)]);
      if (Times[static_cast<size_t>(Arc.Dst)] <
          T + Arc.Latency + Hop - static_cast<long>(Arc.Omega) * II)
        eject(Arc.Dst, Pending, NumPending);
    }
    if (Ejections > Budget)
      return false;

    for (long Guard = 0; Guard <= static_cast<long>(N); ++Guard) {
      int OverPe = -1, OverR = -1;
      if (countRouteUse(Graph, Cgra, Times, Pes, II, RouteScratch, &OverPe,
                        &OverR))
        return true;
      if (!ejectRouteContributor(U, OverPe, OverR, Pending, NumPending))
        return false;
      if (Ejections > Budget)
        return false;
    }
    return false;
  }

  /// Ejects one scheduled op feeding the overflowing (pe, residue) route
  /// slot: a remote-sending producer other than u, else one of u's remote
  /// consumers (removing a distinct destination). False when nothing can
  /// move, i.e. the slot cannot be relieved without unplacing u itself.
  bool ejectRouteContributor(int U, int OverPe, int OverR,
                             std::vector<char> &Pending, long &NumPending) {
    for (int X = 0; X < N; ++X) {
      if (X == U || Pes[static_cast<size_t>(X)] != OverPe ||
          !Scheduled[static_cast<size_t>(X)])
        continue;
      if (safeMod(Times[static_cast<size_t>(X)] + Graph.latency(X), II) !=
          OverR)
        continue;
      for (const int ArcId : Graph.succArcs(X)) {
        const DepArc &Arc = Graph.arc(ArcId);
        if (Arc.Value >= 0 && Scheduled[static_cast<size_t>(Arc.Dst)] &&
            Pes[static_cast<size_t>(Arc.Dst)] >= 0 &&
            Pes[static_cast<size_t>(Arc.Dst)] != OverPe) {
          eject(X, Pending, NumPending);
          return true;
        }
      }
    }
    if (Pes[static_cast<size_t>(U)] == OverPe)
      for (const int ArcId : Graph.succArcs(U)) {
        const DepArc &Arc = Graph.arc(ArcId);
        if (Arc.Value >= 0 && Arc.Dst != U &&
            Scheduled[static_cast<size_t>(Arc.Dst)] &&
            Pes[static_cast<size_t>(Arc.Dst)] >= 0 &&
            Pes[static_cast<size_t>(Arc.Dst)] !=
                Pes[static_cast<size_t>(U)]) {
          eject(Arc.Dst, Pending, NumPending);
          return true;
        }
      }
    return false;
  }

  const DepGraph &Graph;
  const CgraModel &Cgra;
  const MachineModel &M;
  const int II;
  const std::vector<long> &Estart;
  const std::vector<long> &Slack;
  const std::vector<std::vector<int>> &AllowedPes;
  const long Budget;
  const int N;
  std::vector<int> Times;
  std::vector<int> Pes;
  std::vector<char> Scheduled;
  std::vector<long> PrevTime;
  std::vector<int> Owner; ///< op per (PE, residue) reservation slot
  std::vector<int> RouteScratch;
  long Ejections = 0;
};

} // namespace

CgraMapping lsms::mapLoopCgra(const DepGraph &Graph, const CgraModel &Cgra) {
  CgraMapping Res;
  const int N = Graph.numOps();
  const MachineModel &M = Cgra.machine();
  const MIIBounds Bounds = computeMII(Graph);
  Res.MII = Bounds.MII;

  std::vector<std::vector<int>> AllowedPes(static_cast<size_t>(N));
  std::vector<int> TimeOps;
  for (int U = 0; U < N; ++U) {
    const Opcode Opc = Graph.body().op(U).Opc;
    if (M.unitFor(Opc) == FuKind::None)
      continue;
    TimeOps.push_back(U);
    if (!fuKindNeedsPe(M.unitFor(Opc)))
      continue;
    for (int Pe = 0; Pe < Cgra.numPes(); ++Pe)
      if (Cgra.capableOf(Pe, Opc))
        AllowedPes[static_cast<size_t>(U)].push_back(Pe);
    if (AllowedPes[static_cast<size_t>(U)].empty())
      return Res; // capability hole: no PE can run this opcode
  }

  const int MaxII = IICapPolicy().maxII(Res.MII);
  const long Budget = EjectionBudgetPerOp *
                      std::max<long>(1, static_cast<long>(TimeOps.size()));
  MinDistMatrix MD;
  std::vector<long> E, L;

  for (int II = Res.MII; II <= MaxII;
       II += std::max(II * IIIncrementPct / 100, 1)) {
    ++Res.Attempts;
    if (!MD.compute(Graph, II))
      continue;
    bool ResFits = true;
    for (const int U : TimeOps)
      if (!AllowedPes[static_cast<size_t>(U)].empty() &&
          M.reservationCycles(Graph.body().op(U).Opc) > II)
        ResFits = false;
    if (!ResFits)
      continue;

    MD.estarts(Graph.body().startOp(), E);
    MD.lstarts(Graph.body().stopOp(), E[static_cast<size_t>(
                                          Graph.body().stopOp())],
               L);
    std::vector<long> Slack(static_cast<size_t>(N), 0);
    for (const int U : TimeOps)
      Slack[static_cast<size_t>(U)] =
          L[static_cast<size_t>(U)] - E[static_cast<size_t>(U)];

    MapAttempt Attempt(Graph, Cgra, II, E, Slack, AllowedPes, Budget);
    const bool Ok = Attempt.run(TimeOps);
    Res.Ejections += Attempt.ejections();
    if (!Ok)
      continue;

    Res.Success = true;
    Res.II = II;
    Res.Times = Attempt.times();
    Res.Pes = Attempt.pes();
    // Materialize the pseudo-ops: Start at 0, Stop after the last
    // predecessor's result is due.
    Res.Times[static_cast<size_t>(Graph.body().startOp())] = 0;
    long StopTime = 0;
    for (const int ArcId : Graph.predArcs(Graph.body().stopOp())) {
      const DepArc &Arc = Graph.arc(ArcId);
      if (Res.Times[static_cast<size_t>(Arc.Src)] < 0)
        continue;
      StopTime = std::max(
          StopTime, Res.Times[static_cast<size_t>(Arc.Src)] + Arc.Latency -
                        static_cast<long>(Arc.Omega) * II);
    }
    Res.Times[static_cast<size_t>(Graph.body().stopOp())] =
        static_cast<int>(StopTime);
    return Res;
  }
  return Res;
}
