#include "ir/LoopBody.h"

#include "support/Compiler.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <sstream>

using namespace lsms;

const char *lsms::regClassName(RegClass Class) {
  switch (Class) {
  case RegClass::RR:
    return "RR";
  case RegClass::GPR:
    return "GPR";
  case RegClass::ICR:
    return "ICR";
  }
  LSMS_UNREACHABLE("invalid register class");
}

const char *lsms::depKindName(DepKind Kind) {
  switch (Kind) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Extra:
    return "extra";
  }
  LSMS_UNREACHABLE("invalid dependence kind");
}

const char *lsms::arcConfidenceName(ArcConfidence Conf) {
  switch (Conf) {
  case ArcConfidence::Exact:
    return "exact";
  case ArcConfidence::MayAlias:
    return "mayalias";
  case ArcConfidence::Control:
    return "control";
  }
  LSMS_UNREACHABLE("invalid arc confidence");
}

LoopBody::LoopBody() {
  // Operation 0 is Start, operation 1 is Stop (Section 4.1).
  addOperation(Opcode::Start, {}, "start");
  addOperation(Opcode::Stop, {}, "stop");
}

int LoopBody::addValue(RegClass Class, int Def, std::string Name) {
  Value V;
  V.Id = numValues();
  V.Class = Class;
  V.Def = Def;
  V.Name = std::move(Name);
  Values.push_back(std::move(V));
  return Values.back().Id;
}

int LoopBody::addOperation(Opcode Opc, std::vector<Use> Operands,
                           std::string Name) {
  Operation Op;
  Op.Id = numOps();
  Op.Opc = Opc;
  Op.Operands = std::move(Operands);
  Op.Name = std::move(Name);
  Ops.push_back(std::move(Op));
  return Ops.back().Id;
}

std::vector<LoopBody::UseSite> LoopBody::usesOf(int ValueId) const {
  std::vector<UseSite> Sites;
  for (const Operation &Op : Ops) {
    for (const Use &U : Op.Operands)
      if (U.Value == ValueId)
        Sites.push_back({Op.Id, U.Omega});
    if (Op.PredValue == ValueId)
      Sites.push_back({Op.Id, Op.PredOmega});
  }
  return Sites;
}

int LoopBody::operandArity(Opcode Opc) {
  switch (Opc) {
  case Opcode::Start:
  case Opcode::Stop:
  case Opcode::BrTop:
    return 0;
  case Opcode::Load:
  case Opcode::Copy:
  case Opcode::PredNot:
  case Opcode::FloatSqrt:
    return 1;
  case Opcode::Store:
  case Opcode::AddrAdd:
  case Opcode::AddrSub:
  case Opcode::AddrMul:
  case Opcode::IntAdd:
  case Opcode::IntSub:
  case Opcode::IntAnd:
  case Opcode::IntOr:
  case Opcode::IntXor:
  case Opcode::FloatAdd:
  case Opcode::FloatSub:
  case Opcode::IntMul:
  case Opcode::FloatMul:
  case Opcode::IntDiv:
  case Opcode::IntMod:
  case Opcode::FloatDiv:
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE:
  case Opcode::PredAnd:
  case Opcode::PredOr:
    return 2;
  case Opcode::Select:
    return 3;
  case Opcode::NumOpcodes:
    break;
  }
  LSMS_UNREACHABLE("invalid opcode");
}

std::vector<int> LoopBody::sequentialOrder() const {
  const int N = numOps();
  const auto ForEachArc = [this](auto Visit) {
    for (const Operation &Op : Ops) {
      for (const Use &U : Op.Operands)
        if (U.Omega == 0)
          Visit(value(U.Value).Def, Op.Id);
      if (Op.PredValue >= 0 && Op.PredOmega == 0)
        Visit(value(Op.PredValue).Def, Op.Id);
    }
    for (const MemDep &D : MemDeps)
      if (D.Omega == 0)
        Visit(D.Src, D.Dst);
  };
  // Successor lists in one array: First[X] ends up at X's first successor.
  std::vector<int> First(static_cast<size_t>(N) + 1, 0);
  std::vector<int> InDegree(static_cast<size_t>(N), 0);
  ForEachArc([&](int From, int To) {
    ++First[static_cast<size_t>(From)];
    ++InDegree[static_cast<size_t>(To)];
  });
  for (size_t X = 1; X <= static_cast<size_t>(N); ++X)
    First[X] += First[X - 1];
  std::vector<int> Succ(static_cast<size_t>(First[static_cast<size_t>(N)]));
  ForEachArc([&](int From, int To) {
    Succ[static_cast<size_t>(--First[static_cast<size_t>(From)])] = To;
  });

  // Kahn's algorithm on a min-heap of ready ops: lowest id first.
  std::vector<int> Ready, Order;
  Ready.reserve(static_cast<size_t>(N));
  Order.reserve(static_cast<size_t>(N));
  for (int X = 0; X < N; ++X)
    if (InDegree[static_cast<size_t>(X)] == 0)
      Ready.push_back(X);
  while (!Ready.empty()) {
    std::pop_heap(Ready.begin(), Ready.end(), std::greater<int>());
    const int X = Ready.back();
    Ready.pop_back();
    Order.push_back(X);
    for (int K = First[static_cast<size_t>(X)];
         K < First[static_cast<size_t>(X) + 1]; ++K) {
      const int S = Succ[static_cast<size_t>(K)];
      if (--InDegree[static_cast<size_t>(S)] == 0) {
        Ready.push_back(S);
        std::push_heap(Ready.begin(), Ready.end(), std::greater<int>());
      }
    }
  }
  return Order;
}

std::string LoopBody::verify() const {
  std::ostringstream Err;
  auto Fail = [&Err](const std::string &Msg) {
    Err << Msg;
    return Err.str();
  };

  if (numOps() < 2 || Ops[0].Opc != Opcode::Start ||
      Ops[1].Opc != Opcode::Stop)
    return Fail("operations 0/1 must be the Start/Stop pseudo-ops");

  int BrTops = 0;
  for (const Operation &Op : Ops) {
    if (Op.Opc == Opcode::BrTop)
      ++BrTops;
    if (Op.Id > 1 && isPseudo(Op.Opc))
      return Fail("duplicate pseudo-operation " + Op.Name);

    const int Arity = operandArity(Op.Opc);
    if (Arity >= 0 && static_cast<int>(Op.Operands.size()) != Arity)
      return Fail("operation " + Op.Name + " has wrong operand count");

    for (const Use &U : Op.Operands) {
      if (U.Value < 0 || U.Value >= numValues())
        return Fail("operation " + Op.Name + " uses an unknown value");
      if (U.Omega < 0)
        return Fail("operation " + Op.Name + " has a negative omega");
      const Value &V = value(U.Value);
      if (V.Class == RegClass::GPR && U.Omega != 0)
        return Fail("invariant " + V.Name + " used with nonzero omega");
    }
    if (Op.PredValue >= 0) {
      if (Op.PredValue >= numValues())
        return Fail("operation " + Op.Name + " has an unknown predicate");
      if (value(Op.PredValue).Class != RegClass::ICR)
        return Fail("predicate of " + Op.Name + " is not an ICR value");
      if (Op.PredOmega < 0)
        return Fail("operation " + Op.Name + " has a negative pred omega");
    }
    if (isMemoryOp(Op.Opc)) {
      if (Op.ArrayId < 0 || Op.ArrayId >= NumArrays)
        return Fail("memory operation " + Op.Name +
                    " references an unknown array");
    }
    if (Op.Result >= 0) {
      if (Op.Result >= numValues())
        return Fail("operation " + Op.Name + " defines an unknown value");
      if (value(Op.Result).Def != Op.Id)
        return Fail("value def link broken for " + Op.Name);
      const bool WantPred = producesPredicate(Op.Opc);
      const RegClass Class = value(Op.Result).Class;
      if (WantPred && Class != RegClass::ICR)
        return Fail("comparison " + Op.Name + " must define an ICR value");
      if (!WantPred && Class == RegClass::ICR)
        return Fail("operation " + Op.Name + " may not define an ICR value");
    }
    if ((Op.Opc == Opcode::Store || Op.Opc == Opcode::BrTop ||
         isPseudo(Op.Opc)) &&
        Op.Result >= 0)
      return Fail("operation " + Op.Name + " must not define a value");
    if (!(Op.Opc == Opcode::Store || Op.Opc == Opcode::BrTop ||
          isPseudo(Op.Opc)) &&
        Op.Result < 0)
      return Fail("operation " + Op.Name + " must define a value");
  }
  if (BrTops != 1 || BrTop < 0 || Ops[static_cast<size_t>(BrTop)].Opc !=
                                      Opcode::BrTop)
    return Fail("loop must contain exactly one brtop");

  for (const Value &V : Values) {
    if (V.Def < 0 || V.Def >= numOps())
      return Fail("value " + V.Name + " has no defining operation");
    const Operation &Def = op(V.Def);
    if (Def.Id != startOp() && Def.Result != V.Id)
      return Fail("value " + V.Name + " not defined by its def op");
    if (Def.Id == startOp() && !V.Seeds.empty())
      return Fail("loop input " + V.Name + " may not carry seeds");
  }

  for (const MemDep &D : MemDeps) {
    if (D.Src < 0 || D.Src >= numOps() || D.Dst < 0 || D.Dst >= numOps())
      return Fail("memory dependence references unknown operations");
    if (D.Omega < 0)
      return Fail("memory dependence has negative omega");
    if (D.Conf == ArcConfidence::MayAlias && D.AliasGroup < 0)
      return Fail("may-alias dependence missing its alias group");
  }

  if (ExitValue >= 0) {
    if (ExitValue >= numValues())
      return Fail("exit condition references an unknown value");
    if (value(ExitValue).Class != RegClass::ICR)
      return Fail("exit condition must be an ICR (predicate) value");
    if (value(ExitValue).Def == startOp())
      return Fail("exit condition must be computed inside the loop");
  }

  if (sequentialOrder().size() != static_cast<size_t>(numOps()))
    return Fail("loop body has an intra-iteration dependence cycle");

  return std::string();
}

void LoopBody::print(std::ostream &OS) const {
  OS << "loop " << Name << " (ops=" << numMachineOps()
     << ", values=" << numValues() << ", arrays=" << NumArrays
     << (HasConditional ? ", conditional" : "") << ")\n";
  for (const Operation &Op : Ops) {
    if (isPseudo(Op.Opc))
      continue;
    OS << "  ";
    if (Op.Result >= 0) {
      const Value &R = value(Op.Result);
      OS << R.Name << ":" << regClassName(R.Class) << " = ";
    }
    OS << opcodeName(Op.Opc);
    if (Op.ArrayId >= 0) {
      if (Op.Indirect)
        OS << " A" << Op.ArrayId << "[indirect]";
      else
        OS << " A" << Op.ArrayId << "[i"
           << (Op.ElemOffset >= 0 ? "+" : "") << Op.ElemOffset << "]";
    }
    for (const Use &U : Op.Operands) {
      OS << ' ' << value(U.Value).Name;
      if (U.Omega != 0)
        OS << '@' << U.Omega;
    }
    if (Op.PredValue >= 0) {
      OS << " if " << value(Op.PredValue).Name;
      if (Op.PredOmega != 0)
        OS << '@' << Op.PredOmega;
    }
    OS << '\n';
  }
  for (const MemDep &D : MemDeps) {
    OS << "  memdep " << op(D.Src).Name << " -> " << op(D.Dst).Name << " ("
       << depKindName(D.Kind) << ", lat=" << D.Latency << ", omega=" << D.Omega;
    if (D.Conf != ArcConfidence::Exact) {
      OS << ", " << arcConfidenceName(D.Conf);
      if (D.Conf == ArcConfidence::MayAlias) {
        OS << " g" << D.AliasGroup << " p=";
        if (D.Prob < 0)
          OS << '?';
        else
          OS << D.Prob;
      }
    }
    OS << ")\n";
  }
  if (ExitValue >= 0)
    OS << "  while " << value(ExitValue).Name << '\n';
}
