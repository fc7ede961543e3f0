#include "regalloc/RotatingAllocator.h"

#include "bounds/Lifetimes.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

using namespace lsms;

namespace {

struct Range {
  int Value = -1;
  long Start = 0;  ///< issue cycle of the defining operation
  long Length = 0; ///< lifetime in cycles
};

long floorDiv(long A, long B) { return A >= 0 ? A / B : -((-A + B - 1) / B); }
long floorMod(long A, long B) { return A - floorDiv(A, B) * B; }

/// The iteration distances m = j_v - j_w at which instance j_v of V and
/// instance j_w of W are live at the same time, as the half-open range
/// [first, second): -LTv < (Sv - Sw) + m*II < LTw.
std::pair<long, long> overlapDistances(const Range &V, const Range &W,
                                       int II) {
  const long Delta = V.Start - W.Start;
  return {floorDiv(-V.Length - Delta, II) + 1,
          -floorDiv(Delta - W.Length, II)};
}

std::vector<Range> collectRanges(const LoopBody &Body,
                                 const std::vector<int> &Times, int II,
                                 RegClass Class) {
  const PressureInfo Info = computePressure(Body, Times, II, Class);
  std::vector<Range> Ranges;
  for (const Value &V : Body.Values) {
    if (V.Class != Class)
      continue;
    const long Length = Info.Length[static_cast<size_t>(V.Id)];
    if (Length <= 0)
      continue; // never read: no register needed
    Ranges.push_back(
        {V.Id, Times[static_cast<size_t>(V.Def)], Length});
  }
  return Ranges;
}

/// Orderings tried by the allocator (Rau et al. [18] evaluate start-time
/// and adjacency orderings; longest-first is the classic interval-packing
/// heuristic). The allocator keeps whichever yields the smallest file.
enum class AllocOrder { StartTime, LongestFirst, EndTime };

void orderRanges(std::vector<Range> &Ranges, AllocOrder Order) {
  switch (Order) {
  case AllocOrder::StartTime:
    std::stable_sort(Ranges.begin(), Ranges.end(),
                     [](const Range &A, const Range &B) {
                       if (A.Start != B.Start)
                         return A.Start < B.Start;
                       return A.Length > B.Length;
                     });
    return;
  case AllocOrder::LongestFirst:
    std::stable_sort(Ranges.begin(), Ranges.end(),
                     [](const Range &A, const Range &B) {
                       if (A.Length != B.Length)
                         return A.Length > B.Length;
                       return A.Start < B.Start;
                     });
    return;
  case AllocOrder::EndTime:
    std::stable_sort(Ranges.begin(), Ranges.end(),
                     [](const Range &A, const Range &B) {
                       return A.Start + A.Length < B.Start + B.Length;
                     });
    return;
  }
}

/// First-fit coloring of \p Ranges into a file of \p Size registers;
/// returns false when some range cannot be colored. Instances j_v, j_w of
/// ranges V, W share a physical register when j_v - j_w == (Cv - Cw) mod
/// Size, so every distance m at which they overlap forbids V the color
/// (Cw + m) mod Size. A range colliding with its own instances (some
/// overlap at m != 0 with m == 0 mod Size) does so under every color.
bool colorRanges(const std::vector<Range> &Ranges, int Size, int II,
                 std::vector<int> &Color) {
  Color.assign(Ranges.size(), -1);
  // ForbiddenFor[C] == I marks color C taken for range I.
  std::vector<size_t> ForbiddenFor(static_cast<size_t>(Size), SIZE_MAX);
  for (size_t I = 0; I < Ranges.size(); ++I) {
    const auto [SelfLo, SelfHi] = overlapDistances(Ranges[I], Ranges[I], II);
    for (long M = SelfLo; M < SelfHi; ++M)
      if (M != 0 && M % Size == 0)
        return false;
    for (size_t J = 0; J < I; ++J) {
      const auto [Lo, Hi] = overlapDistances(Ranges[I], Ranges[J], II);
      // Size consecutive distances already forbid every color.
      for (long M = Lo; M < std::min(Hi, Lo + Size); ++M)
        ForbiddenFor[static_cast<size_t>(floorMod(Color[J] + M, Size))] = I;
    }
    int C = 0;
    while (C < Size && ForbiddenFor[static_cast<size_t>(C)] == I)
      ++C;
    if (C == Size)
      return false;
    Color[I] = C;
  }
  return true;
}

} // namespace

AllocationResult lsms::allocateRotating(const LoopBody &Body,
                                        const std::vector<int> &Times, int II,
                                        RegClass Class, int MaxSize,
                                        const std::vector<ExtraRange> &Extra) {
  AllocationResult Result;
  Result.Color.assign(static_cast<size_t>(Body.numValues()), -1);
  Result.ExtraColor.assign(Extra.size(), -1);
  Result.MaxLive = computePressure(Body, Times, II, Class).MaxLive;

  std::vector<Range> Ranges = collectRanges(Body, Times, II, Class);
  // Extra ranges use negative pseudo-value ids below any real value.
  for (size_t E = 0; E < Extra.size(); ++E)
    Ranges.push_back({-2 - static_cast<int>(E), Extra[E].Start,
                      Extra[E].Length});
  if (Ranges.empty()) {
    Result.Success = true;
    Result.FileSize = 0;
    return Result;
  }

  // Try each ordering at growing sizes; the first size at which any
  // ordering succeeds is minimal for first-fit across these orderings.
  for (int Size = std::max<long>(1, Result.MaxLive); Size <= MaxSize;
       ++Size) {
    for (const AllocOrder Order :
         {AllocOrder::StartTime, AllocOrder::LongestFirst,
          AllocOrder::EndTime}) {
      std::vector<Range> Ordered = Ranges;
      orderRanges(Ordered, Order);
      std::vector<int> Color;
      if (!colorRanges(Ordered, Size, II, Color))
        continue;
      Result.Success = true;
      Result.FileSize = Size;
      for (size_t I = 0; I < Ordered.size(); ++I) {
        if (Ordered[I].Value >= 0)
          Result.Color[static_cast<size_t>(Ordered[I].Value)] = Color[I];
        else
          Result.ExtraColor[static_cast<size_t>(-2 - Ordered[I].Value)] =
              Color[I];
      }
      return Result;
    }
  }
  return Result;
}

std::string lsms::validateAllocation(const LoopBody &Body,
                                     const std::vector<int> &Times, int II,
                                     RegClass Class,
                                     const AllocationResult &Alloc) {
  std::ostringstream Err;
  if (!Alloc.Success) {
    Err << "allocation unsuccessful";
    return Err.str();
  }
  const std::vector<Range> Ranges = collectRanges(Body, Times, II, Class);
  if (Ranges.empty())
    return std::string();

  long MaxLen = 0, MaxStart = 0;
  for (const Range &R : Ranges) {
    MaxLen = std::max(MaxLen, R.Length);
    MaxStart = std::max(MaxStart, R.Start);
    if (Alloc.Color[static_cast<size_t>(R.Value)] < 0) {
      Err << "live value " << Body.value(R.Value).Name << " has no color";
      return Err.str();
    }
  }

  // Simulate occupancy: enough iterations that every pair of instances
  // whose physical registers can coincide is exercised (one full rotation
  // of the file plus the longest lifetime).
  const int Size = Alloc.FileSize;
  const long Iterations =
      Size + (MaxStart + MaxLen) / II + 2;
  // (physreg, cycle) -> (value, iteration): distinct instances of the same
  // value are distinct owners and must not collide either.
  std::map<std::pair<int, long>, std::pair<int, long>> Owner;
  for (long J = 0; J < Iterations; ++J) {
    for (const Range &R : Ranges) {
      const int C = Alloc.Color[static_cast<size_t>(R.Value)];
      const int Phys = static_cast<int>((((C - J) % Size) + Size) % Size);
      const long Start = R.Start + J * II;
      for (long T = Start; T < Start + R.Length; ++T) {
        auto [It, Inserted] = Owner.emplace(std::make_pair(Phys, T),
                                            std::make_pair(R.Value, J));
        if (!Inserted && It->second != std::make_pair(R.Value, J)) {
          Err << "register r" << Phys << " at cycle " << T
              << " held by both " << Body.value(It->second.first).Name
              << "(iter " << It->second.second << ") and "
              << Body.value(R.Value).Name << "(iter " << J << ")";
          return Err.str();
        }
      }
    }
  }
  return std::string();
}
