#include "cgra/CgraModel.h"

#include <algorithm>
#include <sstream>

using namespace lsms;

const char *lsms::peCapName(PeCap Cap) {
  switch (Cap) {
  case PeCap::Mem:
    return "mem";
  case PeCap::Alu:
    return "alu";
  case PeCap::Mul:
    return "mul";
  case PeCap::Div:
    return "div";
  }
  return "?";
}

PeCap lsms::peCapForFuKind(FuKind Kind) {
  switch (Kind) {
  case FuKind::MemoryPort:
    return PeCap::Mem;
  case FuKind::AddressAlu:
  case FuKind::Adder:
    return PeCap::Alu;
  case FuKind::Multiplier:
    return PeCap::Mul;
  case FuKind::Divider:
    return PeCap::Div;
  case FuKind::Branch:
  case FuKind::None:
    break;
  }
  assert(false && "kind takes no PE slot");
  return PeCap::Alu;
}

CgraModel::CgraModel()
    : Base(MachineModel::cydra5()), Flat(MachineModel::cydra5()) {}

namespace {

constexpr uint8_t capBit(PeCap Cap) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(Cap));
}

constexpr uint8_t AllCaps = capBit(PeCap::Mem) | capBit(PeCap::Alu) |
                            capBit(PeCap::Mul) | capBit(PeCap::Div);

/// The FuKinds whose unit counts the flattening derives from PE caps.
constexpr FuKind PlacedKinds[] = {FuKind::MemoryPort, FuKind::AddressAlu,
                                  FuKind::Adder, FuKind::Multiplier,
                                  FuKind::Divider};

} // namespace

void CgraModel::rebuildDerived() {
  Flat = Base;
  for (const FuKind Kind : PlacedKinds) {
    const int Capable = capableCount(peCapForFuKind(Kind));
    Flat.setUnitCount(Kind, std::max(1, Capable));
  }

  PeRows.clear();
  PeCols.clear();
  Neighbors.clear();
  NeighborBegin.assign(1, 0);
  // Up, down, left, right; the torus wraps, the mesh drops off-grid steps.
  // A 1- or 2-wide torus axis reaches the PE itself or one PE twice.
  constexpr int Steps[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  for (int R = 0; R < Rows; ++R) {
    for (int C = 0; C < Cols; ++C) {
      PeRows.push_back(R);
      PeCols.push_back(C);
      const size_t Begin = Neighbors.size();
      for (const auto &[DR, DC] : Steps) {
        int QR = R + DR, QC = C + DC;
        if (Torus) {
          QR = (QR + Rows) % Rows;
          QC = (QC + Cols) % Cols;
        } else if (QR < 0 || QR >= Rows || QC < 0 || QC >= Cols) {
          continue;
        }
        const int Q = QR * Cols + QC;
        if (Q != R * Cols + C)
          Neighbors.push_back(Q);
      }
      std::sort(Neighbors.begin() + static_cast<long>(Begin), Neighbors.end());
      Neighbors.erase(std::unique(Neighbors.begin() + static_cast<long>(Begin),
                                  Neighbors.end()),
                      Neighbors.end());
      NeighborBegin.push_back(Neighbors.size());
    }
  }
}

CgraModel CgraModel::defaultGrid(int Rows, int Cols) {
  assert(Rows >= 1 && Cols >= 1 && "degenerate grid");
  CgraModel M;
  M.Rows = Rows;
  M.Cols = Cols;
  M.Torus = false;
  M.HopLatency = 1;
  M.RouteCap = 2;
  M.Caps.assign(static_cast<size_t>(Rows) * static_cast<size_t>(Cols),
                capBit(PeCap::Alu));
  for (int R = 0; R < Rows; ++R) {
    for (int C = 0; C < Cols; ++C) {
      uint8_t &Bits = M.Caps[static_cast<size_t>(M.peId(R, C))];
      if (C == 0)
        Bits |= capBit(PeCap::Mem);
      if (C >= (Cols + 1) / 2)
        Bits |= capBit(PeCap::Mul);
      if (R == Rows - 1 && C == Cols - 1)
        Bits |= capBit(PeCap::Div);
    }
  }
  // A 1-wide grid has no mul column; fall back to mul everywhere so the
  // model stays usable for degenerate test grids.
  if (M.capableCount(PeCap::Mul) == 0)
    for (uint8_t &Bits : M.Caps)
      Bits |= capBit(PeCap::Mul);
  M.rebuildDerived();
  return M;
}

int CgraModel::capableCount(PeCap Cap) const {
  int Count = 0;
  for (const uint8_t Bits : Caps)
    if (Bits & capBit(Cap))
      ++Count;
  return Count;
}

namespace {

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::istringstream IS(Line);
  std::string Tok;
  while (IS >> Tok)
    Tokens.push_back(Tok);
  return Tokens;
}

bool parsePositiveInt(const std::string &S, int &Out) {
  if (S.empty())
    return false;
  long V = 0;
  for (const char Ch : S) {
    if (Ch < '0' || Ch > '9')
      return false;
    V = V * 10 + (Ch - '0');
    if (V > 1 << 20)
      return false;
  }
  Out = static_cast<int>(V);
  return true;
}

/// "<rows>x<cols>" with both in [1, 64].
bool parseDims(const std::string &S, int &Rows, int &Cols) {
  const size_t X = S.find('x');
  if (X == std::string::npos)
    return false;
  if (!parsePositiveInt(S.substr(0, X), Rows) ||
      !parsePositiveInt(S.substr(X + 1), Cols))
    return false;
  return Rows >= 1 && Rows <= 64 && Cols >= 1 && Cols <= 64;
}

bool parseCapToken(const std::string &Tok, uint8_t &Bits) {
  if (Tok == "mem")
    Bits |= capBit(PeCap::Mem);
  else if (Tok == "alu")
    Bits |= capBit(PeCap::Alu);
  else if (Tok == "mul")
    Bits |= capBit(PeCap::Mul);
  else if (Tok == "div")
    Bits |= capBit(PeCap::Div);
  else if (Tok == "all")
    Bits |= AllCaps;
  else
    return false;
  return true;
}

} // namespace

bool CgraModel::parse(const std::string &Config, CgraModel &Out,
                      std::string &Err) {
  CgraModel M;
  bool SawGrid = false;
  bool SawPeLine = false;

  std::istringstream IS(Config);
  std::string RawLine;
  int LineNo = 0;
  while (std::getline(IS, RawLine)) {
    ++LineNo;
    const size_t Hash = RawLine.find('#');
    if (Hash != std::string::npos)
      RawLine.resize(Hash);
    const std::vector<std::string> Tok = tokenize(RawLine);
    if (Tok.empty())
      continue;
    std::ostringstream At;
    At << "cgra config line " << LineNo << ": ";

    if (Tok[0] == "grid") {
      if (SawGrid) {
        Err = At.str() + "duplicate grid line";
        return false;
      }
      if (Tok.size() < 2 || !parseDims(Tok[1], M.Rows, M.Cols)) {
        Err = At.str() + "bad grid dimensions '" +
              (Tok.size() < 2 ? std::string() : Tok[1]) +
              "' (want <rows>x<cols>, each in [1, 64])";
        return false;
      }
      for (size_t I = 2; I < Tok.size(); ++I) {
        int V = 0;
        if (Tok[I] == "mesh") {
          M.Torus = false;
        } else if (Tok[I] == "torus") {
          M.Torus = true;
        } else if (Tok[I].rfind("hop=", 0) == 0 &&
                   parsePositiveInt(Tok[I].substr(4), V)) {
          M.HopLatency = V;
        } else if (Tok[I] == "hop=0") {
          M.HopLatency = 0;
        } else if (Tok[I].rfind("route=", 0) == 0) {
          if (!parsePositiveInt(Tok[I].substr(6), V) || V == 0) {
            Err = At.str() + "routing capacity must be a positive integer: '" +
                  Tok[I] + "'";
            return false;
          }
          M.RouteCap = V;
        } else {
          Err = At.str() + "unknown grid attribute '" + Tok[I] + "'";
          return false;
        }
      }
      M.Caps.assign(static_cast<size_t>(M.Rows) * static_cast<size_t>(M.Cols),
                    AllCaps);
      SawGrid = true;
      continue;
    }

    if (Tok[0] == "pe") {
      if (!SawGrid) {
        Err = At.str() + "pe line before grid line";
        return false;
      }
      // pe <spec> : <cap>...
      size_t Colon = 0;
      while (Colon < Tok.size() && Tok[Colon] != ":")
        ++Colon;
      if (Tok.size() < 2 || Colon != 2 || Colon + 1 >= Tok.size()) {
        Err = At.str() + "want 'pe <row>,<col>|* : <cap>...'";
        return false;
      }
      uint8_t Bits = 0;
      for (size_t I = Colon + 1; I < Tok.size(); ++I) {
        if (!parseCapToken(Tok[I], Bits)) {
          Err = At.str() + "unknown capability '" + Tok[I] + "'";
          return false;
        }
      }
      if (Tok[1] == "*") {
        std::fill(M.Caps.begin(), M.Caps.end(), Bits);
      } else {
        const size_t Comma = Tok[1].find(',');
        int R = -1, C = -1;
        if (Comma == std::string::npos ||
            !parsePositiveInt(Tok[1].substr(0, Comma), R) ||
            !parsePositiveInt(Tok[1].substr(Comma + 1), C) || R >= M.Rows ||
            C >= M.Cols) {
          Err = At.str() + "bad PE address '" + Tok[1] + "' for a " +
                std::to_string(M.Rows) + "x" + std::to_string(M.Cols) +
                " grid";
          return false;
        }
        M.Caps[static_cast<size_t>(M.peId(R, C))] = Bits;
      }
      SawPeLine = true;
      continue;
    }

    Err = At.str() + "unknown directive '" + Tok[0] + "'";
    return false;
  }

  if (!SawGrid) {
    Err = "cgra config: missing grid line";
    return false;
  }
  (void)SawPeLine;
  M.rebuildDerived();
  Out = M;
  Err.clear();
  return true;
}

bool CgraModel::parseGridArg(const std::string &Arg, CgraModel &Out,
                             std::string &Err) {
  int Rows = 0, Cols = 0;
  if (!parseDims(Arg, Rows, Cols)) {
    Err = "bad grid '" + Arg + "' (want <rows>x<cols>, each in [1, 64])";
    return false;
  }
  Out = defaultGrid(Rows, Cols);
  return true;
}

std::string CgraModel::describe() const {
  std::ostringstream OS;
  OS << Rows << "x" << Cols << (Torus ? " torus" : " mesh") << ", hop "
     << HopLatency << ", route " << RouteCap << ", caps";
  for (unsigned I = 0; I < NumPeCaps; ++I) {
    const PeCap Cap = static_cast<PeCap>(I);
    OS << " " << peCapName(Cap) << "=" << capableCount(Cap);
  }
  return OS.str();
}
