#include "vliwsim/Execution.h"

#include "support/Compiler.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

using namespace lsms;

double lsms::defaultMemoryInit(int Array, long Index) {
  uint64_t H = (static_cast<uint64_t>(Array) + 1) * 0x9E3779B97F4A7C15ULL ^
               (static_cast<uint64_t>(Index) + 4096) * 0xBF58476D1CE4E5B9ULL;
  H ^= H >> 30;
  H *= 0x94D049BB133111EBULL;
  H ^= H >> 31;
  const double Frac =
      static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0);
  return 1.0 + 2.0 * Frac;
}

namespace {

/// The largest operand count of any opcode (Select's three).
constexpr size_t MaxOperands = 3;

/// Shared machinery: per-value instance tables, memory, and per-operation
/// evaluation. Both executors drive it with different (iteration, op)
/// orders.
class Machine {
public:
  /// Instances are stored value-major in one flat table: the slot of
  /// (value v, iteration First + k) is v * Iterations + k. Loop inputs
  /// (Start-defined values) are read from the body, never from the table.
  Machine(const LoopBody &Body, long Iterations, const MemoryInit &Init)
      : Body(Body), First(Body.First), Iterations(Iterations), Init(Init),
        Instances(static_cast<size_t>(Body.numValues()) *
                      static_cast<size_t>(Iterations),
                  0.0),
        Computed(Instances.size(), 0),
        Memory(static_cast<size_t>(Body.NumArrays)) {}

  /// Value instance of \p ValueId for iteration \p Iter (absolute, may be
  /// below First for seeded reads). Sets \p Ok false on undefined reads.
  double instance(int ValueId, long Iter, bool &Ok) {
    const Value &V = Body.value(ValueId);
    if (V.Def == Body.startOp())
      return V.Init; // loop input: same every iteration
    if (Iter < First) {
      if (V.SeedArrayId >= 0)
        return memoryAt(V.SeedArrayId,
                        Iter * V.SeedElemStride + V.SeedElemOffset);
      const size_t K = static_cast<size_t>(First - 1 - Iter);
      return K < V.Seeds.size() ? V.Seeds[K] : 0.0;
    }
    const size_t Slot = static_cast<size_t>(Iter - First);
    if (Slot >= static_cast<size_t>(Iterations) ||
        !Computed[slot(ValueId, Slot)]) {
      Ok = false;
      return 0.0;
    }
    return Instances[slot(ValueId, Slot)];
  }

  void setInstance(int ValueId, long Iter, double D) {
    const size_t Slot = slot(ValueId, static_cast<size_t>(Iter - First));
    Instances[Slot] = D;
    Computed[Slot] = 1;
  }

  double memoryAt(int Array, long Index) {
    auto &Cells = Memory[static_cast<size_t>(Array)];
    const auto It = Cells.find(Index);
    return It != Cells.end() ? It->second : Init(Array, Index);
  }

  void memoryWrite(int Array, long Index, double D) {
    Memory[static_cast<size_t>(Array)][Index] = D;
  }

  /// Evaluates \p Op for iteration \p Iter against current memory; when
  /// \p StoreOut is non-null, stores are deferred (the pipelined executor
  /// commits them a cycle later), otherwise applied immediately.
  struct PendingStore {
    int Array;
    long Index;
    double Datum;
  };
  bool evaluate(const Operation &Op, long Iter, std::string &Error,
                PendingStore *StoreOut = nullptr);

  /// Records executed memory accesses when non-null.
  std::vector<MemTraceEntry> *Trace = nullptr;

  /// \p ActualTrip is the number of iterations actually executed (equals
  /// the window for counted loops); live-outs are read at the last executed
  /// iteration.
  ExecutionResult finish(std::string Error, long ActualTrip) {
    ExecutionResult R;
    R.Error = std::move(Error);
    R.ActualTrip = ActualTrip;
    if (R.Error.empty() && ActualTrip > 0) {
      for (const Value &V : Body.Values) {
        if (!V.LiveOut)
          continue;
        bool Ok = true;
        const double D = instance(V.Id, First + ActualTrip - 1, Ok);
        R.LiveOuts[V.Id] = Ok ? D : std::numeric_limits<double>::quiet_NaN();
      }
    }
    R.Arrays = std::move(Memory);
    return R;
  }

private:
  size_t slot(int ValueId, size_t Iter) const {
    return static_cast<size_t>(ValueId) * static_cast<size_t>(Iterations) +
           Iter;
  }

  const LoopBody &Body;
  const long First;
  const long Iterations;
  const MemoryInit &Init;
  std::vector<double> Instances;
  std::vector<uint8_t> Computed;
  std::vector<std::map<long, double>> Memory;
};

bool Machine::evaluate(const Operation &Op, long Iter, std::string &Error,
                       PendingStore *StoreOut) {
  bool Ok = true;
  auto Operand = [this, &Op, Iter, &Ok](size_t I) {
    return instance(Op.Operands[I].Value, Iter - Op.Operands[I].Omega, Ok);
  };

  // Predicated execution: a false predicate turns the operation into a
  // no-op (Section 2.2).
  if (Op.PredValue >= 0) {
    const double P = instance(Op.PredValue, Iter - Op.PredOmega, Ok);
    if (!Ok) {
      Error = "predicate of " + Op.Name + " undefined";
      return false;
    }
    if (P == 0.0)
      return true;
  }

  double Result = 0;

  switch (Op.Opc) {
  case Opcode::Start:
  case Opcode::Stop:
  case Opcode::BrTop:
    return true;
  case Opcode::Load: {
    // Affine accesses compute the address stream for fidelity but derive
    // the element index from the subscript; indirect accesses round
    // operand 0 (the index scalar's runtime value). Loads never fault —
    // any index reads initialized memory.
    const double A0 = Operand(0);
    if (!Ok)
      break;
    const long Index = Op.Indirect
                           ? static_cast<long>(std::llround(A0))
                           : Iter * Op.ElemStride + Op.ElemOffset;
    if (Trace)
      Trace->push_back({Op.Id, Index});
    Result = memoryAt(Op.ArrayId, Index);
    break;
  }
  case Opcode::Store: {
    const double A0 = Operand(0);
    const double Datum = Operand(1);
    if (!Ok)
      break;
    const long Index = Op.Indirect
                           ? static_cast<long>(std::llround(A0))
                           : Iter * Op.ElemStride + Op.ElemOffset;
    if (Trace)
      Trace->push_back({Op.Id, Index});
    if (StoreOut) {
      *StoreOut = {Op.ArrayId, Index, Datum};
    } else {
      memoryWrite(Op.ArrayId, Index, Datum);
    }
    return true;
  }
  default: {
    const size_t Count = Op.Operands.size();
    assert(Count <= MaxOperands && "more operands than any opcode takes");
    std::array<double, MaxOperands> Operands{};
    for (size_t I = 0; I < Count; ++I)
      Operands[I] = Operand(I);
    if (Ok)
      Result = evaluateOpcode(Op.Opc, std::span(Operands.data(), Count));
    break;
  }
  }

  if (!Ok) {
    std::ostringstream OS;
    OS << "operation " << Op.Name << " read an undefined value instance in "
       << "iteration " << Iter;
    Error = OS.str();
    return false;
  }
  if (Op.Result >= 0)
    setInstance(Op.Result, Iter, Result);
  return true;
}

/// Topological order of operations under omega-0 dependences (register and
/// memory): the sequential execution order of one iteration.
std::vector<int> sequentialOrder(const LoopBody &Body) {
  const int N = Body.numOps();
  std::vector<std::vector<int>> Succ(static_cast<size_t>(N));
  std::vector<int> InDegree(static_cast<size_t>(N), 0);
  auto AddEdge = [&Succ, &InDegree](int From, int To) {
    Succ[static_cast<size_t>(From)].push_back(To);
    ++InDegree[static_cast<size_t>(To)];
  };
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      if (U.Omega == 0 && Body.value(U.Value).Def != Body.startOp())
        AddEdge(Body.value(U.Value).Def, Op.Id);
    if (Op.PredValue >= 0 && Op.PredOmega == 0)
      AddEdge(Body.value(Op.PredValue).Def, Op.Id);
  }
  for (const MemDep &D : Body.MemDeps)
    if (D.Omega == 0)
      AddEdge(D.Src, D.Dst);

  // Kahn's algorithm, preferring low op ids (stable program order).
  std::vector<int> Ready, Order;
  for (int Op = 0; Op < N; ++Op)
    if (InDegree[static_cast<size_t>(Op)] == 0)
      Ready.push_back(Op);
  while (!Ready.empty()) {
    const auto MinIt = std::min_element(Ready.begin(), Ready.end());
    const int Op = *MinIt;
    Ready.erase(MinIt);
    Order.push_back(Op);
    for (int S : Succ[static_cast<size_t>(Op)])
      if (--InDegree[static_cast<size_t>(S)] == 0)
        Ready.push_back(S);
  }
  assert(Order.size() == static_cast<size_t>(N) &&
         "omega-0 cycle (verifier should have rejected this body)");
  return Order;
}

} // namespace

namespace {

ExecutionResult runReferenceImpl(const LoopBody &Body, long Iterations,
                                 const MemoryInit &Init,
                                 std::vector<MemTraceEntry> *TraceOut) {
  Machine M(Body, Iterations, Init);
  M.Trace = TraceOut;
  const std::vector<int> Order = sequentialOrder(Body);
  std::string Error;
  long Executed = 0;
  for (long Iter = Body.First; Iter < Body.First + Iterations; ++Iter) {
    for (int OpId : Order) {
      if (!M.evaluate(Body.op(OpId), Iter, Error))
        return M.finish(std::move(Error), Executed);
    }
    ++Executed;
    if (Body.isWhileLoop()) {
      // Do-while: the first iteration whose exit value is false is the
      // last executed.
      bool Ok = true;
      const double Exit = M.instance(Body.ExitValue, Iter, Ok);
      if (Ok && Exit == 0.0)
        break;
    }
  }
  return M.finish(std::string(), Executed);
}

} // namespace

ExecutionResult lsms::runReference(const LoopBody &Body, long Iterations,
                                   const MemoryInit &Init) {
  return runReferenceImpl(Body, Iterations, Init, nullptr);
}

ExecutionResult lsms::runReferenceTraced(const LoopBody &Body,
                                         long Iterations,
                                         const MemoryInit &Init,
                                         std::vector<MemTraceEntry> &TraceOut) {
  TraceOut.clear();
  return runReferenceImpl(Body, Iterations, Init, &TraceOut);
}

ExecutionResult lsms::runPipelined(const LoopBody &Body,
                                   const Schedule &Sched, long Iterations,
                                   const MemoryInit &Init) {
  if (!Sched.Success) {
    ExecutionResult R;
    R.Error = "cannot execute a failed schedule";
    return R;
  }

  Machine M(Body, Iterations, Init);

  // The event list (issue time, op, iteration) in (time, iteration, op)
  // order: events are generated in (iteration, op) order and placed by
  // one stable counting pass over issue times.
  struct Event {
    long Time;
    int Op;
    long Iter;
  };
  long MinTime = 0, MaxTime = 0;
  if (!Sched.Times.empty()) {
    const auto [Lo, Hi] =
        std::minmax_element(Sched.Times.begin(), Sched.Times.end());
    MinTime = *Lo;
    MaxTime = *Hi + std::max(Iterations - 1, 0L) * Sched.II;
  }
  std::vector<size_t> Bucket(static_cast<size_t>(MaxTime - MinTime) + 2, 0);
  auto ForEachEvent = [&Body, &Sched, Iterations](auto Visit) {
    for (long Iter = Body.First; Iter < Body.First + Iterations; ++Iter) {
      const long Offset = (Iter - Body.First) * Sched.II;
      for (const Operation &Op : Body.Ops)
        Visit(Event{Sched.Times[static_cast<size_t>(Op.Id)] + Offset, Op.Id,
                    Iter});
    }
  };
  ForEachEvent([&Bucket, MinTime](const Event &E) {
    ++Bucket[static_cast<size_t>(E.Time - MinTime) + 1];
  });
  for (size_t T = 1; T < Bucket.size(); ++T)
    Bucket[T] += Bucket[T - 1];
  std::vector<Event> Events(Bucket.back());
  ForEachEvent([&Bucket, &Events, MinTime](const Event &E) {
    Events[Bucket[static_cast<size_t>(E.Time - MinTime)]++] = E;
  });

  // Stores commit one cycle after issue; loads sample memory at issue.
  struct Commit {
    long Time;
    long Iter;
    Machine::PendingStore Store;
  };
  std::vector<Commit> CommitQueue; // sorted by insertion (times ascend)
  size_t NextCommit = 0;

  // While-loops: the exit compare for iteration j resolves one cycle after
  // it issues. Once the first false exit value is known (scanning exit
  // events in time order visits them in iteration order), stores of later
  // iterations that issue at or after the resolve cycle are squashed;
  // stores already issued commit anyway — observable misspeculation.
  // Conservative control arcs (exit -> store, latency 1, omega 1) force
  // every later store past the resolve cycle, so conservative schedules
  // squash all of them. Loads and register writes of dead iterations are
  // harmless: loads never fault and non-negative omegas mean no live
  // iteration reads a later iteration's values.
  const int ExitDef =
      Body.isWhileLoop() ? Body.value(Body.ExitValue).Def : -1;
  bool ExitFound = false;
  long ExitIter = 0;
  long ResolveTime = 0;

  std::string Error;
  for (const Event &E : Events) {
    while (NextCommit < CommitQueue.size() &&
           CommitQueue[NextCommit].Time <= E.Time) {
      const auto &S = CommitQueue[NextCommit++].Store;
      M.memoryWrite(S.Array, S.Index, S.Datum);
    }
    const Operation &Op = Body.op(E.Op);
    Machine::PendingStore Pending{-1, 0, 0};
    if (!M.evaluate(Op, E.Iter, Error, &Pending))
      return M.finish(std::move(Error),
                      ExitFound ? ExitIter - Body.First + 1 : Iterations);
    if (Pending.Array >= 0) {
      const bool Squashed = ExitFound && E.Iter > ExitIter &&
                            E.Time >= ResolveTime;
      if (!Squashed)
        CommitQueue.push_back({E.Time + 1, E.Iter, Pending});
    }
    if (E.Op == ExitDef && !ExitFound) {
      bool Ok = true;
      const double Exit = M.instance(Body.ExitValue, E.Iter, Ok);
      if (Ok && Exit == 0.0) {
        ExitFound = true;
        ExitIter = E.Iter;
        ResolveTime = E.Time + 1;
      }
    }
  }
  while (NextCommit < CommitQueue.size()) {
    const auto &S = CommitQueue[NextCommit++].Store;
    M.memoryWrite(S.Array, S.Index, S.Datum);
  }

  long Misspeculated = 0;
  if (ExitFound)
    for (const Commit &C : CommitQueue)
      if (C.Iter > ExitIter)
        ++Misspeculated;

  ExecutionResult R = M.finish(
      std::string(), ExitFound ? ExitIter - Body.First + 1 : Iterations);
  R.MisspeculatedStores = Misspeculated;
  return R;
}

std::string lsms::compareExecutions(const ExecutionResult &A,
                                    const ExecutionResult &B) {
  std::ostringstream OS;
  auto Same = [](double X, double Y) {
    return X == Y || (std::isnan(X) && std::isnan(Y));
  };
  if (!A.Error.empty() || !B.Error.empty()) {
    OS << "execution errors: '" << A.Error << "' vs '" << B.Error << "'";
    return OS.str();
  }
  // Trip counts are deliberately NOT compared here: callers legitimately
  // compare executions at different granularities (an unrolled body runs
  // 1/Factor as many iterations over the same work). The speculation
  // replay, where truncation must agree, checks ActualTrip itself.
  if (A.Arrays.size() != B.Arrays.size()) {
    OS << "different array counts";
    return OS.str();
  }
  for (size_t Array = 0; Array < A.Arrays.size(); ++Array) {
    const auto &MapA = A.Arrays[Array];
    const auto &MapB = B.Arrays[Array];
    for (const auto &[Index, ValueA] : MapA) {
      const auto It = MapB.find(Index);
      if (It == MapB.end()) {
        OS << "array " << Array << "[" << Index << "] written only by A";
        return OS.str();
      }
      if (!Same(ValueA, It->second)) {
        OS << "array " << Array << "[" << Index << "]: " << ValueA
           << " vs " << It->second;
        return OS.str();
      }
    }
    for (const auto &[Index, ValueB] : MapB) {
      (void)ValueB;
      if (!MapA.count(Index)) {
        OS << "array " << Array << "[" << Index << "] written only by B";
        return OS.str();
      }
    }
  }
  if (A.LiveOuts.size() != B.LiveOuts.size()) {
    OS << "different live-out counts";
    return OS.str();
  }
  for (const auto &[Id, ValueA] : A.LiveOuts) {
    const auto It = B.LiveOuts.find(Id);
    if (It == B.LiveOuts.end() || !Same(ValueA, It->second)) {
      OS << "live-out value " << Id << " differs";
      return OS.str();
    }
  }
  return std::string();
}

double lsms::evaluateOpcode(Opcode Opc, std::span<const double> Operands) {
  auto AsLong = [](double D) { return static_cast<long>(D); };
  auto A = [&Operands](size_t I) {
    assert(I < Operands.size() && "missing operand");
    return Operands[I];
  };
  switch (Opc) {
  case Opcode::AddrAdd:
  case Opcode::IntAdd:
  case Opcode::FloatAdd:
    return A(0) + A(1);
  case Opcode::AddrSub:
  case Opcode::IntSub:
  case Opcode::FloatSub:
    return A(0) - A(1);
  case Opcode::AddrMul:
  case Opcode::IntMul:
  case Opcode::FloatMul:
    return A(0) * A(1);
  case Opcode::IntAnd:
    return static_cast<double>(AsLong(A(0)) & AsLong(A(1)));
  case Opcode::IntOr:
    return static_cast<double>(AsLong(A(0)) | AsLong(A(1)));
  case Opcode::IntXor:
    return static_cast<double>(AsLong(A(0)) ^ AsLong(A(1)));
  case Opcode::FloatDiv:
    return A(0) / A(1);
  case Opcode::IntDiv: {
    const long B = AsLong(A(1));
    return B == 0 ? 0.0 : static_cast<double>(AsLong(A(0)) / B);
  }
  case Opcode::IntMod: {
    const long B = AsLong(A(1));
    return B == 0 ? 0.0 : static_cast<double>(AsLong(A(0)) % B);
  }
  case Opcode::FloatSqrt:
    return std::sqrt(A(0));
  case Opcode::CmpEQ:
    return A(0) == A(1) ? 1.0 : 0.0;
  case Opcode::CmpNE:
    return A(0) != A(1) ? 1.0 : 0.0;
  case Opcode::CmpLT:
    return A(0) < A(1) ? 1.0 : 0.0;
  case Opcode::CmpLE:
    return A(0) <= A(1) ? 1.0 : 0.0;
  case Opcode::CmpGT:
    return A(0) > A(1) ? 1.0 : 0.0;
  case Opcode::CmpGE:
    return A(0) >= A(1) ? 1.0 : 0.0;
  case Opcode::PredAnd:
    return A(0) != 0.0 && A(1) != 0.0 ? 1.0 : 0.0;
  case Opcode::PredOr:
    return A(0) != 0.0 || A(1) != 0.0 ? 1.0 : 0.0;
  case Opcode::PredNot:
    return A(0) == 0.0 ? 1.0 : 0.0;
  case Opcode::Copy:
    return A(0);
  case Opcode::Select:
    return A(0) != 0.0 ? A(1) : A(2);
  case Opcode::Start:
  case Opcode::Stop:
  case Opcode::BrTop:
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::NumOpcodes:
    break;
  }
  LSMS_UNREACHABLE("evaluateOpcode on a non-arithmetic opcode");
}
