#include "regalloc/RotatingAllocator.h"

#include "bounds/Lifetimes.h"

#include <algorithm>
#include <array>
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

std::vector<Range> collectRanges(const LoopBody &Body,
                                 const std::vector<int> &Times,
                                 RegClass Class, const PressureInfo &Info) {
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

/// A range to color, with its start S and its negated end -(S + L) split
/// into floor quotient and remainder by II. Instances j_v of V and j_w of
/// W are live at the same time exactly at the iteration distances m =
/// j_v - j_w with -Lv < (Sv - Sw) + m*II < Lw, the half-open range
///   [floor((Sw - (Sv + Lv)) / II) + 1, -floor((Sv - (Sw + Lw)) / II)),
/// and the floor of a sum of two split numbers is the sum of their
/// quotients, plus one when their remainders reach II.
struct SplitRange {
  Range R;
  long StartQ = 0, StartR = 0;   ///< S == StartQ*II + StartR, 0 <= StartR < II
  long NegEndQ = 0, NegEndR = 0; ///< -(S + L), split the same way
};

SplitRange split(const Range &R, int II) {
  const long NegEnd = -(R.Start + R.Length);
  const long StartQ = floorDiv(R.Start, II);
  const long NegEndQ = floorDiv(NegEnd, II);
  return {R, StartQ, R.Start - StartQ * II, NegEndQ, NegEnd - NegEndQ * II};
}

/// Orderings tried by the allocator (Rau et al. [18] evaluate start-time
/// and adjacency orderings; longest-first is the classic interval-packing
/// heuristic). The allocator keeps whichever yields the smallest file.
enum class AllocOrder { StartTime, LongestFirst, EndTime };
constexpr std::array<AllocOrder, 3> AllocOrders = {
    AllocOrder::StartTime, AllocOrder::LongestFirst, AllocOrder::EndTime};

void orderRanges(std::vector<SplitRange> &Ranges, AllocOrder Order) {
  switch (Order) {
  case AllocOrder::StartTime:
    std::stable_sort(Ranges.begin(), Ranges.end(),
                     [](const SplitRange &A, const SplitRange &B) {
                       if (A.R.Start != B.R.Start)
                         return A.R.Start < B.R.Start;
                       return A.R.Length > B.R.Length;
                     });
    return;
  case AllocOrder::LongestFirst:
    std::stable_sort(Ranges.begin(), Ranges.end(),
                     [](const SplitRange &A, const SplitRange &B) {
                       if (A.R.Length != B.R.Length)
                         return A.R.Length > B.R.Length;
                       return A.R.Start < B.R.Start;
                     });
    return;
  case AllocOrder::EndTime:
    std::stable_sort(Ranges.begin(), Ranges.end(),
                     [](const SplitRange &A, const SplitRange &B) {
                       return A.R.Start + A.R.Length < B.R.Start + B.R.Length;
                     });
    return;
  }
}

/// First-fit coloring of \p Ranges into a file of \p Size registers;
/// returns false when some range cannot be colored. Instances j_v, j_w of
/// ranges V, W share a physical register when j_v - j_w == (Cv - Cw) mod
/// Size, so every distance m at which they overlap forbids V the color
/// (Cw + m) mod Size. A range also collides with its own instances when
/// some distance m != 0 with m == 0 mod Size overlaps; its distances are
/// [1 - h, h) with h = ceil(L / II), so \p Size must be at least h for
/// every range, which the caller guarantees. \p ForbiddenFor is scratch.
bool colorRanges(const std::vector<SplitRange> &Ranges, int Size, int II,
                 std::vector<int> &Color, std::vector<size_t> &ForbiddenFor) {
  Color.assign(Ranges.size(), -1);
  // ForbiddenFor[C] == I marks color C taken for range I.
  ForbiddenFor.assign(static_cast<size_t>(Size), SIZE_MAX);
  for (size_t I = 0; I < Ranges.size(); ++I) {
    const SplitRange &V = Ranges[I];
    for (size_t J = 0; J < I; ++J) {
      const SplitRange &W = Ranges[J];
      const long Lo = W.StartQ + V.NegEndQ + (W.StartR + V.NegEndR >= II) + 1;
      const long Hi = -(V.StartQ + W.NegEndQ + (V.StartR + W.NegEndR >= II));
      // Size consecutive distances already forbid every color.
      const long Count = std::min(Hi - Lo, static_cast<long>(Size));
      if (Count <= 0)
        continue;
      long C = (Color[J] + Lo) % Size;
      if (C < 0)
        C += Size;
      for (long K = 0; K < Count; ++K) {
        ForbiddenFor[static_cast<size_t>(C)] = I;
        if (++C == Size)
          C = 0;
      }
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
  const PressureInfo Info = computePressure(Body, Times, II, Class);
  Result.MaxLive = Info.MaxLive;

  std::vector<SplitRange> Ranges;
  for (const Range &R : collectRanges(Body, Times, Class, Info))
    Ranges.push_back(split(R, II));
  // Extra ranges use negative pseudo-value ids below any real value.
  for (size_t E = 0; E < Extra.size(); ++E)
    Ranges.push_back(split(
        {-2 - static_cast<int>(E), Extra[E].Start, Extra[E].Length}, II));
  if (Ranges.empty()) {
    Result.Success = true;
    Result.FileSize = 0;
    return Result;
  }

  // A file smaller than MaxLive cannot hold the loop values, and one
  // smaller than some range's ceil(L / II) makes that range collide with
  // its own instances under every ordering.
  long MinSize = std::max<long>(1, Result.MaxLive);
  for (const SplitRange &R : Ranges)
    MinSize = std::max(MinSize, -floorDiv(-R.R.Length, II));

  // Try each ordering at growing sizes; the first size at which any
  // ordering succeeds is minimal for first-fit across these orderings.
  // Each ordering is sorted once, when first tried.
  std::array<std::vector<SplitRange>, AllocOrders.size()> Ordered;
  std::vector<int> Color;
  std::vector<size_t> ForbiddenFor;
  for (long Size = MinSize; Size <= MaxSize; ++Size) {
    for (size_t K = 0; K < AllocOrders.size(); ++K) {
      if (Ordered[K].empty()) {
        Ordered[K] = Ranges;
        orderRanges(Ordered[K], AllocOrders[K]);
      }
      if (!colorRanges(Ordered[K], static_cast<int>(Size), II, Color,
                       ForbiddenFor))
        continue;
      Result.Success = true;
      Result.FileSize = static_cast<int>(Size);
      for (size_t I = 0; I < Ordered[K].size(); ++I) {
        const int Value = Ordered[K][I].R.Value;
        if (Value >= 0)
          Result.Color[static_cast<size_t>(Value)] = Color[I];
        else
          Result.ExtraColor[static_cast<size_t>(-2 - Value)] = Color[I];
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
  const std::vector<Range> Ranges = collectRanges(
      Body, Times, Class, computePressure(Body, Times, II, Class));
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
