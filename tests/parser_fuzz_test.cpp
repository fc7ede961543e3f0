//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fuzz pass over the DSL parser: a seeded token mutator
/// (splice / delete / duplicate / substitute) runs over a corpus of valid
/// sources — hand-written kernels, while/indirect programs, and generator
/// output — asserting that the parser never crashes and that every
/// *accepted* mutant round-trips through the AST printer (print -> parse
/// -> structurally equal, and the second print is a fixpoint). Also pins
/// the negative grammar cases for the while-exit clause and the nesting
/// bound: hostile depths are refused without a crash, and a tree exactly
/// at MaxNestingDepth still compiles.
///
//===----------------------------------------------------------------------===//

#include "frontend/AstPrinter.h"
#include "frontend/LoopCompiler.h"
#include "frontend/Parser.h"
#include "support/Rng.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

using namespace lsms;

namespace {

/// Splits source text into mutation units: identifier/number runs, single
/// punctuation characters, and newlines (statement separators, so they
/// must survive as tokens). Whitespace is dropped; rejoining inserts it.
std::vector<std::string> splitTokens(const std::string &S) {
  std::vector<std::string> Tokens;
  size_t I = 0;
  while (I < S.size()) {
    const char C = S[I];
    if (C == '\n') {
      Tokens.push_back("\n");
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
        C == '.') {
      size_t J = I;
      while (J < S.size() &&
             (std::isalnum(static_cast<unsigned char>(S[J])) ||
              S[J] == '_' || S[J] == '.'))
        ++J;
      Tokens.push_back(S.substr(I, J - I));
      I = J;
      continue;
    }
    Tokens.push_back(std::string(1, C));
    ++I;
  }
  return Tokens;
}

std::string joinTokens(const std::vector<std::string> &Tokens) {
  std::string Out;
  for (const std::string &T : Tokens) {
    if (T == "\n") {
      Out += '\n';
      continue;
    }
    if (!Out.empty() && Out.back() != '\n')
      Out += ' ';
    Out += T;
  }
  Out += '\n';
  return Out;
}

/// Applies 1-3 random token edits. All randomness comes from the xorshift
/// Rng, so every mutant is reproducible from the corpus index and round.
std::string mutate(const std::vector<std::string> &Base, Rng &R) {
  std::vector<std::string> T = Base;
  const int Edits = static_cast<int>(R.nextInRange(1, 3));
  for (int E = 0; E < Edits && !T.empty(); ++E) {
    const size_t At = static_cast<size_t>(R.nextBelow(T.size()));
    switch (R.nextBelow(4)) {
    case 0: // delete
      T.erase(T.begin() + static_cast<long>(At));
      break;
    case 1: // duplicate in place
      T.insert(T.begin() + static_cast<long>(At), T[At]);
      break;
    case 2: { // splice: move a token somewhere else
      const std::string Tok = T[At];
      T.erase(T.begin() + static_cast<long>(At));
      const size_t To = T.empty() ? 0 : static_cast<size_t>(
                                            R.nextBelow(T.size() + 1));
      T.insert(T.begin() + static_cast<long>(To), Tok);
      break;
    }
    default: // substitute with another token of the same program
      T[At] = Base[static_cast<size_t>(R.nextBelow(Base.size()))];
      break;
    }
  }
  return joinTokens(T);
}

/// The accepted-mutant obligation: printing and reparsing reproduces the
/// same program, and printing is a fixpoint.
void checkRoundTrip(const Program &P, const std::string &Origin) {
  const std::string Printed = printProgram(P);
  std::string Err;
  const std::unique_ptr<Program> Again = parseProgram(Printed, Err);
  ASSERT_NE(Again, nullptr)
      << Origin << ": printed program failed to reparse: " << Err
      << "\n--- printed ---\n"
      << Printed;
  EXPECT_TRUE(programsEqual(P, *Again)) << Origin << "\n--- printed ---\n"
                                        << Printed;
  EXPECT_EQ(printProgram(*Again), Printed) << Origin;
}

/// A one-statement loop assigning \p Rhs to x[i].
std::string assignLoop(const std::string &Rhs) {
  return "loop i = 2, n\n  x[i] = " + Rhs + "\nend\n";
}

std::string repeat(const std::string &S, int Times) {
  std::string Out;
  for (int I = 0; I < Times; ++I)
    Out += S;
  return Out;
}

/// y[i] wrapped in \p Depth levels of each hostile shape: parentheses
/// (parser recursion, no tree node), a left-deep sum (a tree the parser
/// builds iteratively), unary minus (both), and nested if blocks.
std::string nestedParens(int Depth) {
  return assignLoop(repeat("(", Depth) + "y[i]" + repeat(")", Depth));
}
std::string sumChain(int Terms) {
  return assignLoop("y[i]" + repeat(" + y[i]", Terms - 1));
}
std::string unaryChain(int Depth) {
  return assignLoop(repeat("-", Depth) + "y[i]");
}
std::string nestedIfs(int Depth) {
  return "loop i = 2, n\n" + repeat("if (y[i] > 0) then\n", Depth) +
         "x[i] = y[i]\n" + repeat("end\n", Depth) + "end\n";
}

std::vector<std::string> fuzzCorpus() {
  std::vector<std::string> Corpus;
  for (const NamedKernel &K : kernelSources())
    Corpus.push_back(K.Source);
  // While-exit and data-dependent-subscript programs, so the mutator
  // exercises the irregular grammar too.
  Corpus.push_back("param s0 = 0\n"
                   "loop i = 1, n while (s0 < 8)\n"
                   "a[i] = 5\n"
                   "s0 = s0 + ld0[i]\n"
                   "end\n");
  Corpus.push_back("param q0 = 1\n"
                   "loop i = 1, n\n"
                   "b0 = in0[i] * 4\n"
                   "h0[b0] = h0[b0] + 1\n"
                   "q0 = nx0[q0]\n"
                   "end\n");
  Rng R(0xF022);
  for (int K = 0; K < 4; ++K) {
    const RandomLoopConfig Config; // default size keeps mutants fast
    Corpus.push_back(generateRandomLoopSource(R, Config));
    const IrregularLoopConfig IrrConfig;
    Corpus.push_back(generateIrregularLoopSource(R, IrrConfig).Source);
  }
  return Corpus;
}

} // namespace

TEST(ParserFuzz, CorpusParsesCleanly) {
  for (const std::string &Source : fuzzCorpus()) {
    std::string Err;
    const std::unique_ptr<Program> P = parseProgram(Source, Err);
    ASSERT_NE(P, nullptr) << Err << "\n--- source ---\n" << Source;
    checkRoundTrip(*P, "corpus");
  }
}

TEST(ParserFuzz, MutantsNeverCrashAndAcceptedOnesRoundTrip) {
  const std::vector<std::string> Corpus = fuzzCorpus();
  Rng R(0x5EED);
  long Accepted = 0, Rejected = 0;
  for (size_t C = 0; C < Corpus.size(); ++C) {
    const std::vector<std::string> Base = splitTokens(Corpus[C]);
    for (int Round = 0; Round < 60; ++Round) {
      const std::string Mutant = mutate(Base, R);
      std::string Err;
      const std::unique_ptr<Program> P = parseProgram(Mutant, Err);
      if (!P) {
        // Rejection must come with a diagnostic, not silence.
        EXPECT_FALSE(Err.empty()) << Mutant;
        ++Rejected;
        continue;
      }
      ++Accepted;
      checkRoundTrip(*P, "corpus " + std::to_string(C) + " round " +
                             std::to_string(Round));
    }
  }
  // The mutator must produce both outcomes or the pass is vacuous.
  EXPECT_GT(Accepted, 0) << "no mutant was ever accepted";
  EXPECT_GT(Rejected, 0) << "no mutant was ever rejected";
}

TEST(ParserFuzz, WhileClauseNegativeCases) {
  const struct {
    const char *Source;
    const char *ErrorNeedle;
  } Cases[] = {
      {"loop i = 1, n while (x < 1) while (y < 1)\na[i] = 1\nend\n",
       "only one while clause"},
      {"loop i = 1, n while x < 1\na[i] = 1\nend\n", "after 'while'"},
      {"loop i = 1, n while (x < 1\na[i] = 1\nend\n",
       "close the while condition"},
      {"loop i = 1, n while ()\na[i] = 1\nend\n", ""},
      {"loop i = 1, n while (x <)\na[i] = 1\nend\n", ""},
      {"loop i = 1, n while (x)\na[i] = 1\nend\n", ""},
  };
  for (const auto &Case : Cases) {
    std::string Err;
    const std::unique_ptr<Program> P = parseProgram(Case.Source, Err);
    EXPECT_EQ(P, nullptr) << Case.Source;
    EXPECT_FALSE(Err.empty()) << Case.Source;
    if (Case.ErrorNeedle[0] != '\0') {
      EXPECT_NE(Err.find(Case.ErrorNeedle), std::string::npos)
          << "wanted '" << Case.ErrorNeedle << "' in: " << Err;
    }
  }
}

TEST(ParserFuzz, HostileNestingIsRefusedWithoutCrashing) {
  // Each of these segfaulted the parser, the AST walkers or the tree's
  // destructor before the depth bound existed.
  const std::string Hostile[] = {nestedParens(100000), sumChain(100000),
                                 unaryChain(100000), nestedIfs(50000)};
  for (const std::string &Source : Hostile) {
    std::string Err;
    EXPECT_EQ(parseProgram(Source, Err), nullptr);
    EXPECT_NE(Err.find("nested deeper than"), std::string::npos) << Err;
    LoopBody Body;
    EXPECT_NE(compileLoop(Source, "hostile", Body), "");
  }
}

TEST(ParserFuzz, NestingAtTheLimitCompilesAndOneMoreIsRefused) {
  const int Max = MaxNestingDepth;
  // At the limit: a sum and a unary chain of tree height Max, y[i] at
  // parser level Max inside Max - 1 parentheses (they add parser levels but
  // no tree levels), and Max nested if blocks.
  const std::string AtLimit[] = {nestedParens(Max - 1), sumChain(Max),
                                 unaryChain(Max - 1), nestedIfs(Max)};
  const std::string PastLimit[] = {nestedParens(Max), sumChain(Max + 1),
                                   unaryChain(Max), nestedIfs(Max + 1)};
  for (const std::string &Source : AtLimit) {
    LoopBody Body;
    EXPECT_EQ(compileLoop(Source, "at_limit", Body), "")
        << Source.substr(0, 60);
  }
  for (const std::string &Source : PastLimit) {
    std::string Err;
    EXPECT_EQ(parseProgram(Source, Err), nullptr) << Source.substr(0, 60);
    EXPECT_NE(Err.find("nested deeper than"), std::string::npos) << Err;
  }
}
