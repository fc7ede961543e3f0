#include "workloads/RandomLoop.h"

#include "frontend/LoopCompiler.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace lsms;

namespace {

/// Deterministic exp replacement for the generator's hot path: libm exp is
/// not bit-pinned across implementations, and a 1-ulp difference at an
/// integer boundary would change every downstream loop. Range-reduce to
/// |r| <= ln2/2, evaluate a fixed degree-10 Taylor polynomial (relative
/// error ~1e-13, far below any decision boundary the generator uses), and
/// scale by 2^k exactly.
double detExp(double X) {
  if (X < -700.0)
    return 0.0;
  assert(X < 700.0 && "detExp is only used for moderate arguments");
  const double KD = std::floor(X * 1.4426950408889634 + 0.5);
  // ln2 split high/low so X - KD*ln2 is computed without cancellation.
  const double R = (X - KD * 6.93147180369123816490e-01) -
                   KD * 1.90821492927058770002e-10;
  const double P =
      1.0 +
      R * (1.0 +
           R * (1.0 / 2 +
                R * (1.0 / 6 +
                     R * (1.0 / 24 +
                          R * (1.0 / 120 +
                               R * (1.0 / 720 +
                                    R * (1.0 / 5040 +
                                         R * (1.0 / 40320 +
                                              R * (1.0 / 362880 +
                                                   R / 3628800)))))))));
  return std::ldexp(P, static_cast<int>(KD));
}

} // namespace

RandomLoopConfig lsms::drawTable2Config(Rng &R) {
  RandomLoopConfig C;
  // Log-normal op-count distribution fit to Table 2: median 18, 90th
  // percentile 80, clamped to [4, 400]. Approximate a standard normal
  // with the sum of four uniforms (Irwin-Hall).
  const double Z =
      (R.nextDouble() + R.nextDouble() + R.nextDouble() + R.nextDouble() -
       2.0) *
      std::sqrt(3.0);
  const double Ops = detExp(2.89 + 1.45 * Z);
  C.TargetOps = static_cast<int>(std::min(900.0, std::max(4.0, Ops)));
  return C;
}

namespace {

/// Probability that a random loop contains conditionals (if-converted).
constexpr double ConditionalProb = 0.30;
/// Probability that a generated expression node uses divide or sqrt.
constexpr double DividerProb = 0.04;
/// Maximum omega of a cross-iteration reference.
constexpr int MaxOmega = 3;

/// Emits DSL text for one random loop.
class SourceGen {
public:
  SourceGen(Rng &R, const RandomLoopConfig &C) : R(R), C(C) {}

  std::string run();

private:
  // ---- statement emitters ----
  void emitRecurrence();
  void emitAccumulator();
  void emitPlainWrite();
  void emitConditional(int Depth);
  void statement(int CondDepth);

  // ---- expression synthesis ----
  std::string expr(int Depth);
  std::string leaf();
  std::string inputRead();
  const char *binop();

  std::string indent() const { return std::string(2 * (Nesting + 1), ' '); }

  Rng &R;
  const RandomLoopConfig &C;
  std::ostringstream Body;
  int EstOps = 0;
  int NumInArrays = 0;
  int NumPlainOut = 0;
  int NumCondOut = 0;
  int NumRecOut = 0;
  int NumAccums = 0;
  int NumParams = 0;
  int Nesting = 0;
  bool WantRecurrence = false;
  bool WantConditional = false;
  bool MadeRecurrence = false;
  bool MadeConditional = false;
};

std::string SourceGen::run() {
  WantRecurrence = R.nextBool(C.RecurrenceProb);
  WantConditional = R.nextBool(ConditionalProb);
  NumInArrays = static_cast<int>(R.nextInRange(1, 3));
  NumParams = static_cast<int>(R.nextInRange(1, 3));

  const long First = R.nextInRange(1, 4);

  while (EstOps < C.TargetOps || (WantRecurrence && !MadeRecurrence) ||
         (WantConditional && !MadeConditional))
    statement(/*CondDepth=*/0);

  std::ostringstream Out;
  for (int P = 0; P < NumParams; ++P)
    Out << "param p" << P << " = "
        << formatNumber(0.25 + 0.5 * static_cast<double>(P), 2) << "\n";
  for (int S = 0; S < NumAccums; ++S)
    Out << "param s" << S << " = 0\n";
  Out << "loop i = " << First << ", n\n" << Body.str() << "end\n";
  return Out.str();
}

void SourceGen::statement(int CondDepth) {
  // Priorities: satisfy the requested classes first, then mix.
  if (CondDepth == 0 && WantRecurrence && !MadeRecurrence) {
    emitRecurrence();
    return;
  }
  if (CondDepth == 0 && WantConditional && !MadeConditional) {
    emitConditional(CondDepth);
    return;
  }
  const double U = R.nextDouble();
  if (CondDepth == 0 && WantConditional && U < 0.15) {
    emitConditional(CondDepth);
  } else if (CondDepth == 0 && WantRecurrence && U < 0.30) {
    emitRecurrence();
  } else if (U < 0.45 && (NumAccums > 0 || U < 0.38)) {
    emitAccumulator();
  } else {
    emitPlainWrite();
  }
}

void SourceGen::emitRecurrence() {
  // w[i] = f(w[i-d], ...): load/store elimination turns this into a
  // non-trivial recurrence circuit through rotating registers.
  const int Array = NumRecOut < 2 ? NumRecOut++ : 0;
  NumRecOut = std::max(NumRecOut, Array + 1);
  const int D = static_cast<int>(R.nextInRange(1, MaxOmega));
  const int Depth = static_cast<int>(R.nextInRange(0, 1));
  Body << indent() << "r" << Array << "[i] = r" << Array << "[i-" << D
       << "]";
  if (R.nextBool(0.6)) {
    Body << " * p" << R.nextInRange(0, NumParams - 1);
    ++EstOps;
  }
  Body << " + " << expr(Depth) << "\n";
  EstOps += 4; // fadd + store + address streams
  MadeRecurrence = true;
}

void SourceGen::emitAccumulator() {
  const int S = NumAccums == 0 || R.nextBool(0.5)
                    ? (NumAccums < 3 ? NumAccums++ : 0)
                    : static_cast<int>(R.nextInRange(0, NumAccums - 1));
  NumAccums = std::max(NumAccums, S + 1);
  Body << indent() << "s" << S << " = s" << S;
  if (WantRecurrence && R.nextBool(0.2)) {
    // Multi-op recurrence circuit: s = s * p + e.
    Body << " * p" << R.nextInRange(0, NumParams - 1);
    ++EstOps;
    MadeRecurrence = true;
  }
  Body << " + " << expr(static_cast<int>(R.nextInRange(0, 2))) << "\n";
  EstOps += 1;
}

void SourceGen::emitPlainWrite() {
  const int Array = NumPlainOut == 0 || R.nextBool(0.4)
                        ? (NumPlainOut < 4 ? NumPlainOut++ : 0)
                        : static_cast<int>(R.nextInRange(0, NumPlainOut - 1));
  NumPlainOut = std::max(NumPlainOut, Array + 1);
  const int Depth = static_cast<int>(R.nextInRange(1, 2));
  Body << indent() << "w" << Array << "[i] = " << expr(Depth) << "\n";
  EstOps += 3;
}

void SourceGen::emitConditional(int Depth) {
  MadeConditional = true;
  Body << indent() << "if (" << leaf() << " "
       << (R.nextBool(0.5) ? ">" : "<=") << " " << leaf() << ") then\n";
  EstOps += 2;
  ++Nesting;
  const int ThenStmts = static_cast<int>(R.nextInRange(1, 2));
  for (int S = 0; S < ThenStmts; ++S) {
    if (R.nextBool(0.3) && NumAccums < 3) {
      emitAccumulator();
    } else {
      const int Array = NumCondOut < 3 ? NumCondOut++ : 0;
      NumCondOut = std::max(NumCondOut, Array + 1);
      Body << indent() << "c" << Array << "[i] = "
           << expr(static_cast<int>(R.nextInRange(0, 2))) << "\n";
      EstOps += 3;
    }
  }
  --Nesting;
  if (R.nextBool(0.5)) {
    Body << indent() << "else\n";
    ++Nesting;
    if (Depth == 0 && R.nextBool(0.2)) {
      emitConditional(Depth + 1); // one level of nesting
    } else {
      const int Array = NumCondOut < 3 ? NumCondOut++ : 0;
      NumCondOut = std::max(NumCondOut, Array + 1);
      Body << indent() << "c" << Array << "[i] = "
           << expr(static_cast<int>(R.nextInRange(0, 1))) << "\n";
      EstOps += 3;
    }
    --Nesting;
  }
  Body << indent() << "end\n";
}

std::string SourceGen::expr(int Depth) {
  if (Depth <= 0)
    return leaf();
  const double U = R.nextDouble();
  if (U < DividerProb) {
    ++EstOps;
    EstOps += 16; // divider pressure: count its reservation weight
    if (R.nextBool(0.3))
      return "sqrt(" + expr(Depth - 1) + ")";
    return "(" + expr(Depth - 1) + " / (" + leaf() + " + 2))";
  }
  ++EstOps;
  return "(" + expr(Depth - 1) + " " + binop() + " " + expr(Depth - 1) + ")";
}

const char *SourceGen::binop() {
  const double U = R.nextDouble();
  if (U < 0.45)
    return "+";
  if (U < 0.70)
    return "-";
  return "*";
}

std::string SourceGen::leaf() {
  const double U = R.nextDouble();
  if (U < 0.55)
    return inputRead();
  if (U < 0.60 && NumPlainOut > 0) {
    // Cross-iteration (or future) read of a written array: exercises
    // load/store elimination and anti dependences.
    const int Array = static_cast<int>(R.nextInRange(0, NumPlainOut - 1));
    // Negative offsets into written arrays close recurrence circuits via
    // load/store elimination; only draw them when the loop is meant to
    // carry recurrences.
    const int Off = static_cast<int>(
        WantRecurrence ? R.nextInRange(-MaxOmega, 1) : R.nextInRange(0, 1));
    std::ostringstream OS;
    OS << "w" << Array << "[i" << (Off < 0 ? "-" : "+") << std::abs(Off)
       << "]";
    EstOps += Off >= 1 ? 2 : 0; // future reads stay loads
    return OS.str();
  }
  if (U < 0.72)
    return "p" + std::to_string(R.nextInRange(0, NumParams - 1));
  if (U < 0.78)
    return formatNumber(0.5 + R.nextDouble() * 3.0, 2);
  if (U < 0.82)
    return "i";
  return inputRead();
}

std::string SourceGen::inputRead() {
  const int Array = static_cast<int>(R.nextInRange(0, NumInArrays - 1));
  const int Off = static_cast<int>(R.nextInRange(-2, 2));
  std::ostringstream OS;
  OS << "in" << Array << "[i";
  if (Off != 0)
    OS << (Off < 0 ? "-" : "+") << std::abs(Off);
  OS << "]";
  EstOps += 2;
  return OS.str();
}

} // namespace

std::string lsms::generateRandomLoopSource(Rng &R,
                                           const RandomLoopConfig &Config) {
  SourceGen G(R, Config);
  return G.run();
}

LoopBody lsms::generateRandomLoop(uint64_t Seed,
                                  const RandomLoopConfig &Config) {
  Rng R(Seed);
  const std::string Source = generateRandomLoopSource(R, Config);
  LoopBody Body;
  const std::string Err =
      compileLoop(Source, "rand" + std::to_string(Seed), Body);
  if (!Err.empty()) {
    std::fprintf(stderr,
                 "random loop generator produced invalid source (%s):\n%s\n",
                 Err.c_str(), Source.c_str());
    assert(false && "random loop generator produced invalid source");
  }
  return Body;
}

LoopBody lsms::generateRandomLoop(uint64_t Seed) {
  Rng R(Seed ^ 0xABCDEF);
  return generateRandomLoop(Seed, drawTable2Config(R));
}

//===----------------------------------------------------------------------===//
// Irregular loops: while-exits, data-dependent subscripts, seeded alias
// probabilities.
//===----------------------------------------------------------------------===//

namespace {

/// Relative weights of the irregular core patterns: a histogram update
/// (h[b] = h[b] + e with a data-dependent bucket), a store/load pair on
/// provably disjoint regions of one array (the canonical held-assumption
/// speculation win), and a pointer chase (q = nx[q]).
constexpr double HistogramWeight = 0.40;
constexpr double DisjointWeight = 0.35;
constexpr double ChaseWeight = 0.25;
/// Probability that an irregular loop carries a while-style exit clause.
constexpr double WhileExitProb = 0.5;

/// Emits DSL text for one irregular loop. Kept entirely separate from
/// SourceGen so the Table-2 generator's RNG consumption (which existing
/// goldens pin) is untouched.
class IrregularGen {
public:
  IrregularGen(Rng &R, const IrregularLoopConfig &C) : R(R), C(C) {}

  IrregularSource run();

private:
  void emitHistogram();
  void emitDisjointRegions();
  void emitPointerChase();
  void emitFiller();
  void emitAccumulator();
  std::string expr(int Depth);
  std::string leaf();
  std::string inputRead();

  Rng &R;
  const IrregularLoopConfig &C;
  std::ostringstream Params;
  std::ostringstream Body;
  std::vector<std::pair<std::string, double>> AliasProb;
  int EstOps = 0;
  int NumW = 0;
  bool HaveS0 = false;
  bool HaveQ0 = false; ///< the disjoint pattern's scalar recurrence
};

IrregularSource IrregularGen::run() {
  Params << "param p0 = 0.75\nparam p1 = 1.25\n";

  // Irregular core pattern.
  const double U =
      R.nextDouble() * (HistogramWeight + DisjointWeight + ChaseWeight);
  if (U < HistogramWeight)
    emitHistogram();
  else if (U < HistogramWeight + DisjointWeight)
    emitDisjointRegions();
  else
    emitPointerChase();

  // Affine filler around the core.
  while (EstOps < C.TargetOps)
    emitFiller();

  // A live-out accumulator is always present: it keeps the loop's results
  // observable and gives while-exit conditions a monotone operand.
  emitAccumulator();

  // Optional while-style exit clause (do-while semantics: the condition is
  // evaluated from end-of-iteration bindings; the first false value marks
  // the last executed iteration).
  const bool HasWhile = R.nextBool(WhileExitProb);
  std::string WhileClause;
  if (HasWhile) {
    // s0 accumulates in0 reads in [1, 3): after j iterations it lies in
    // [j, 3j). A threshold beyond 3*IrregularWindow never fires (the
    // NoEarlyExit assumption holds); a threshold inside the window's reach
    // fires mid-window (observable misspeculation for speculative
    // schedules).
    const bool Fires = R.nextBool(0.5);
    const long Threshold =
        Fires ? R.nextInRange(8, std::max<long>(9, IrregularWindow))
              : 4 * IrregularWindow + R.nextInRange(0, 64);
    std::ostringstream W;
    W << " while (s0 < " << Threshold << ")";
    WhileClause = W.str();
  }

  IrregularSource Out;
  std::ostringstream Src;
  Src << Params.str() << "loop i = 1, n" << WhileClause << "\n"
      << Body.str() << "end\n";
  Out.Source = Src.str();
  Out.ArrayAliasProb = AliasProb;
  Out.HasWhile = HasWhile;
  return Out;
}

void IrregularGen::emitHistogram() {
  // h0[b0] = h0[b0] + p0 with a data-dependent bucket b0 = in0[i] * S.
  // Memory values lie in [1, 3), so buckets spread over ~2S integers. The
  // stamped estimate models cross-iteration collisions (birthday bound over
  // the window); the replay harness additionally counts the same-iteration
  // load/store collision, so mid/large scales get dropped by speculation
  // and then observably violate — exactly the misspeculation the harness
  // must surface. Small scales estimate ~1 and stay serialized.
  static const long Scales[5] = {4, 48, 768, 4096, 16384};
  const long S = Scales[R.nextBelow(5)];
  const double Buckets = 2.0 * static_cast<double>(S);
  const double Pairs = 0.5 * static_cast<double>(IrregularWindow) *
                       static_cast<double>(IrregularWindow - 1);
  const double Est = 1.0 - detExp(-Pairs / Buckets);
  AliasProb.emplace_back("h0", Est);
  Body << "  b0 = in0[i] * " << S << "\n";
  Body << "  h0[b0] = h0[b0] + p0\n";
  EstOps += 8; // load, mul, indirect load/store, fadd, address streams
}

void IrregularGen::emitDisjointRegions() {
  // Store region [8, 24] and load region [72, 88] of one array are
  // provably disjoint, but the subscripts are data-dependent so the front
  // end must serialize them. Speculation drops the group (low stamped
  // probability), the NoAlias assumption holds on every trace, and the
  // conservative store->load recurrence (~15 cycles through the load
  // latency) collapses to the scalar q0 recurrence (~3 cycles): the
  // canonical held-assumption speculative win.
  AliasProb.emplace_back("g0", 0.01 + 0.04 * R.nextDouble());
  Params << "param q0 = 0\n";
  HaveQ0 = true;
  Body << "  b0 = in0[i] * 8\n";
  Body << "  j0 = (in0[i] * 8) + 64\n";
  Body << "  g0[b0] = (q0 * p0) + in1[i]\n";
  Body << "  q0 = g0[j0] + (q0 * 0.5)\n";
  EstOps += 12;
}

void IrregularGen::emitPointerChase() {
  // q1 = nx0[q1]: a register recurrence through the load latency (floor of
  // 13 cycles for both lowerings — speculation cannot remove register
  // flow). An optional update store to the same array adds a may-alias
  // group: written either to a disjoint high region (assumption holds) or
  // into the chase range (likely violated / kept, drawn per seed).
  Params << "param q1 = 1\n";
  Body << "  q1 = nx0[q1]\n";
  EstOps += 4;
  if (R.nextBool(0.7)) {
    const bool Disjoint = R.nextBool(0.5);
    if (Disjoint) {
      AliasProb.emplace_back("nx0", 0.02 + 0.05 * R.nextDouble());
      Body << "  u0 = (in0[i] * 4) + 200\n";
    } else {
      // Overlapping region: draw whether the (wrong) estimate still gets
      // the group dropped — violated assumptions and kept-arc loops are
      // both populations the harness needs.
      AliasProb.emplace_back("nx0", R.nextBool(0.5) ? 0.5 : 0.9);
      Body << "  u0 = in0[i]\n";
    }
    Body << "  nx0[u0] = (q1 * p0) + in0[i]\n";
    EstOps += 6;
  }
}

void IrregularGen::emitFiller() {
  const int Array = NumW < 3 ? NumW++ : static_cast<int>(R.nextBelow(
                                            static_cast<uint64_t>(NumW)));
  Body << "  w" << Array << "[i] = "
       << expr(static_cast<int>(R.nextInRange(1, 2))) << "\n";
  EstOps += 3;
}

void IrregularGen::emitAccumulator() {
  Params << "param s0 = 0\n";
  HaveS0 = true;
  Body << "  s0 = s0 + " << (HaveQ0 ? "q0" : inputRead()) << "\n";
  EstOps += 1;
}

std::string IrregularGen::expr(int Depth) {
  if (Depth <= 0)
    return leaf();
  ++EstOps;
  const double U = R.nextDouble();
  const char *Op = U < 0.45 ? "+" : U < 0.70 ? "-" : "*";
  return "(" + expr(Depth - 1) + " " + Op + " " + expr(Depth - 1) + ")";
}

std::string IrregularGen::leaf() {
  const double U = R.nextDouble();
  if (U < 0.55)
    return inputRead();
  if (U < 0.75)
    return "p" + std::to_string(R.nextBelow(2));
  if (U < 0.85)
    return formatNumber(0.5 + R.nextDouble() * 3.0, 2);
  return "i";
}

std::string IrregularGen::inputRead() {
  const int Array = static_cast<int>(R.nextBelow(2));
  const int Off = static_cast<int>(R.nextInRange(-2, 2));
  std::ostringstream OS;
  OS << "in" << Array << "[i";
  if (Off != 0)
    OS << (Off < 0 ? "-" : "+") << std::abs(Off);
  OS << "]";
  EstOps += 2;
  return OS.str();
}

} // namespace

IrregularSource
lsms::generateIrregularLoopSource(Rng &R, const IrregularLoopConfig &Config) {
  IrregularGen G(R, Config);
  return G.run();
}

LoopBody lsms::generateIrregularLoop(uint64_t Seed,
                                     const IrregularLoopConfig &Config) {
  Rng R(Seed);
  const IrregularSource Gen = generateIrregularLoopSource(R, Config);
  LoopBody Body;
  const std::string Err =
      compileLoop(Gen.Source, "irr" + std::to_string(Seed), Body);
  if (!Err.empty()) {
    std::fprintf(stderr,
                 "irregular loop generator produced invalid source (%s):\n%s\n",
                 Err.c_str(), Gen.Source.c_str());
    assert(false && "irregular loop generator produced invalid source");
    return Body;
  }
  // Stamp the generator's collision estimates onto the may-alias groups of
  // the arrays it knows about (both arcs of a group carry the same stamp).
  for (MemDep &Dep : Body.MemDeps) {
    if (Dep.Conf != ArcConfidence::MayAlias)
      continue;
    const int ArrayId = Body.op(Dep.Src).ArrayId;
    if (ArrayId < 0 ||
        static_cast<size_t>(ArrayId) >= Body.ArrayNames.size())
      continue;
    const std::string &Name = Body.ArrayNames[static_cast<size_t>(ArrayId)];
    for (const auto &[ArrayName, Prob] : Gen.ArrayAliasProb)
      if (ArrayName == Name)
        Dep.Prob = Prob;
  }
  return Body;
}

LoopBody lsms::generateIrregularLoop(uint64_t Seed) {
  return generateIrregularLoop(Seed, IrregularLoopConfig());
}
