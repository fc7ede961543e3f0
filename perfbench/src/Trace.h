//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory spans for the traced run. Each span records one call from
/// the benchmark into a layer's public function: its layer, start, end,
/// the span that caused it, and the op it belongs to. Spans stay in memory
/// until the run ends; layer self time is a span's duration minus the
/// part its child spans cover. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Bench.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layers spans are recorded for. Op is the root span of one op.
enum class Layer : uint8_t {
  Op,
  FrontendCompile,
  IrDepGraph,
  CoreSchedule,
  CoreValidate,
  CodegenKernel,
  ServiceParse,
  ServiceHandle,
  ServiceLoopKey,
  ServiceRender,
  ExactSchedule,
  ExactMaxLive,
  CgraMap,
  CgraExact,
  CgraValidate,
  SpecLower,
  SpecCase,
  Count
};

/// Dotted metric-style name ("core.schedule", ...).
const char *layerName(Layer L);

class Tracer {
public:
  struct Span {
    Layer L = Layer::Op;
    int32_t Parent = -1; ///< index of the causing span, -1 for roots
    uint32_t Op = 0;     ///< op id shared by every span of one op
    int64_t StartNs = 0;
    int64_t EndNs = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(Layer L);
  void end(int Index);

  /// Number of root Op spans recorded.
  long ops() const { return NumOps; }

  /// Self seconds per layer, summed over every span.
  std::array<double, size_t(Layer::Count)> selfSeconds() const;

  /// Summed duration of the root Op spans, in seconds.
  double opSeconds() const;

  /// Share of Op span time covered by child layer spans.
  double coverage() const;

  /// Writes one TSV row per span (op, layer, parent, start_ns, end_ns).
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  long NumOps = 0;
  uint32_t CurrentOp = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Tracer &T, Layer L) : T(T), Index(T.enabled() ? T.begin(L) : -1) {}
  ~Scope() {
    if (Index >= 0)
      T.end(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
