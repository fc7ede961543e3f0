#include "Trace.h"

#include <sstream>

using namespace perfbench;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Op:
    return "op";
  case Layer::FrontendCompile:
    return "frontend.compile";
  case Layer::IrDepGraph:
    return "ir.depgraph";
  case Layer::CoreSchedule:
    return "core.schedule";
  case Layer::CoreValidate:
    return "core.validate";
  case Layer::CodegenKernel:
    return "codegen.kernel";
  case Layer::ServiceParse:
    return "service.parse";
  case Layer::ServiceHandle:
    return "service.handle";
  case Layer::ServiceLoopKey:
    return "service.loopkey";
  case Layer::ServiceRender:
    return "service.render";
  case Layer::ExactSchedule:
    return "exact.schedule";
  case Layer::ExactMaxLive:
    return "exact.maxlive";
  case Layer::CgraMap:
    return "cgra.map";
  case Layer::CgraExact:
    return "cgra.exact";
  case Layer::CgraValidate:
    return "cgra.validate";
  case Layer::SpecLower:
    return "spec.lower";
  case Layer::SpecCase:
    return "spec.case";
  case Layer::Count:
    break;
  }
  return "?";
}

int Tracer::begin(Layer L) {
  Span S;
  S.L = L;
  if (L == Layer::Op) {
    CurrentOp = static_cast<uint32_t>(NumOps++);
  }
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurrentOp;
  S.StartNs = nowNs();
  Spans.push_back(S);
  const int Index = static_cast<int>(Spans.size()) - 1;
  Open.push_back(Index);
  return Index;
}

void Tracer::end(int Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  // Scopes close in LIFO order.
  Open.pop_back();
}

std::array<double, size_t(Layer::Count)> Tracer::selfSeconds() const {
  std::vector<int64_t> Covered(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::array<double, size_t(Layer::Count)> Self{};
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[size_t(Spans[I].L)] +=
        1e-9 * double(Spans[I].EndNs - Spans[I].StartNs - Covered[I]);
  return Self;
}

double Tracer::opSeconds() const {
  int64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.L == Layer::Op && S.Parent < 0)
      Ns += S.EndNs - S.StartNs;
  return 1e-9 * double(Ns);
}

double Tracer::coverage() const {
  const double Total = opSeconds();
  if (Total <= 0)
    return 0;
  return 1.0 - selfSeconds()[size_t(Layer::Op)] / Total;
}

bool Tracer::write(const std::string &Path) const {
  std::ostringstream OS;
  OS << "op\tlayer\tparent\tstart_ns\tend_ns\n";
  for (const Span &S : Spans)
    OS << S.Op << '\t' << layerName(S.L) << '\t' << S.Parent << '\t'
       << S.StartNs << '\t' << S.EndNs << '\n';
  return writeFile(Path, OS.str());
}
