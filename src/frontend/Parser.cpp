#include "frontend/Parser.h"

#include "frontend/Lexer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace lsms;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::string &ErrorOut)
      : Tokens(std::move(Tokens)), Error(ErrorOut) {}

  std::unique_ptr<Program> run();

private:
  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance() { return Tokens[Pos++]; }
  bool check(TokenKind Kind) const { return peek().Kind == Kind; }
  bool accept(TokenKind Kind) {
    if (!check(Kind))
      return false;
    ++Pos;
    return true;
  }

  bool expect(TokenKind Kind, const char *Context) {
    if (accept(Kind))
      return true;
    std::ostringstream OS;
    OS << "line " << peek().Line << ": expected " << tokenKindName(Kind)
       << " " << Context << ", found " << tokenKindName(peek().Kind);
    if (!peek().Text.empty() && peek().Kind != TokenKind::Newline)
      OS << " '" << peek().Text << "'";
    Error = OS.str();
    return false;
  }

  void skipNewlines() {
    while (accept(TokenKind::Newline)) {
    }
  }

  bool fail(const std::string &Msg) {
    if (Error.empty()) {
      std::ostringstream OS;
      OS << "line " << peek().Line << ": " << Msg;
      Error = OS.str();
    }
    return false;
  }

  /// Holds one level of a nesting counter for the scope of a recursive
  /// parse call.
  class Level {
  public:
    explicit Level(int &Counter) : Counter(Counter) { ++Counter; }
    ~Level() { --Counter; }
    Level(const Level &) = delete;
    Level &operator=(const Level &) = delete;

  private:
    int &Counter;
  };

  /// Refuses nesting past MaxNestingDepth before it is built: every later
  /// stage recurses once per level.
  bool tooDeep(const char *What) {
    return fail(std::string(What) + " nested deeper than " +
                std::to_string(MaxNestingDepth) + " levels");
  }

  /// Sets \p Node's height from its operands; null when that passes
  /// MaxNestingDepth.
  std::unique_ptr<Expr> bounded(std::unique_ptr<Expr> Node) {
    Node->Height = 1 + std::max(Node->Lhs ? Node->Lhs->Height : 0,
                                Node->Rhs ? Node->Rhs->Height : 0);
    if (Node->Height <= MaxNestingDepth)
      return Node;
    tooDeep("expression");
    return nullptr;
  }

  bool parseParams(Program &Prog);
  bool parseLoopHeader(Program &Prog);
  bool parseStmtList(std::vector<std::unique_ptr<Stmt>> &Out);
  std::unique_ptr<Stmt> parseStmt();
  std::unique_ptr<Stmt> parseIf();
  std::unique_ptr<Stmt> parseAssign();
  bool parseArrayIndex(int &OffsetOut, int &StrideOut,
                       std::string &IndexVarOut);
  std::unique_ptr<Expr> parseExpr();
  std::unique_ptr<Expr> parseTerm();
  std::unique_ptr<Expr> parseFactor();
  bool parseCondition(Condition &Out);

  std::vector<Token> Tokens;
  std::string &Error;
  size_t Pos = 0;
  std::string Counter;
  int ExprNesting = 0; ///< parseFactor calls in progress
  int IfNesting = 0;   ///< parseIf calls in progress
};

std::unique_ptr<Program> Parser::run() {
  auto Prog = std::make_unique<Program>();
  skipNewlines();
  if (!parseParams(*Prog))
    return nullptr;
  if (!parseLoopHeader(*Prog))
    return nullptr;
  Counter = Prog->Counter;
  if (!parseStmtList(Prog->Body))
    return nullptr;
  if (!expect(TokenKind::KwEnd, "to close the loop"))
    return nullptr;
  skipNewlines();
  if (!check(TokenKind::Eof)) {
    fail("trailing input after the loop");
    return nullptr;
  }
  if (Prog->Body.empty()) {
    fail("loop body is empty");
    return nullptr;
  }
  return Prog;
}

bool Parser::parseParams(Program &Prog) {
  while (accept(TokenKind::KwParam)) {
    if (!check(TokenKind::Identifier))
      return fail("expected parameter name after 'param'");
    const std::string Name = advance().Text;
    if (!expect(TokenKind::Assign, "after parameter name"))
      return false;
    double Sign = 1;
    if (accept(TokenKind::Minus))
      Sign = -1;
    if (!check(TokenKind::Number))
      return fail("expected numeric initial value for parameter " + Name);
    Prog.Params.emplace_back(Name, Sign * advance().NumberValue);
    skipNewlines();
  }
  return true;
}

bool Parser::parseLoopHeader(Program &Prog) {
  if (!expect(TokenKind::KwLoop, "to begin the loop"))
    return false;
  if (!check(TokenKind::Identifier))
    return fail("expected induction variable after 'loop'");
  Prog.Counter = advance().Text;
  if (!expect(TokenKind::Assign, "after the induction variable"))
    return false;
  if (!check(TokenKind::Number))
    return fail("expected the loop's first iteration number");
  Prog.First = static_cast<long>(advance().NumberValue);
  if (!expect(TokenKind::Comma, "between loop bounds"))
    return false;
  if (!check(TokenKind::Identifier) || peek().Text != "n")
    return fail("the loop's upper bound must be the symbolic trip count 'n'");
  advance();
  // Subscripts inside the optional while clause need the counter name.
  Counter = Prog.Counter;
  if (accept(TokenKind::KwWhile)) {
    if (!expect(TokenKind::LParen, "after 'while'"))
      return false;
    if (!parseCondition(Prog.Exit))
      return false;
    if (!expect(TokenKind::RParen, "to close the while condition"))
      return false;
    Prog.HasExit = true;
  }
  if (check(TokenKind::KwWhile))
    return fail("a loop may have only one while clause");
  skipNewlines();
  return true;
}

bool Parser::parseStmtList(std::vector<std::unique_ptr<Stmt>> &Out) {
  skipNewlines();
  while (!check(TokenKind::KwEnd) && !check(TokenKind::KwElse) &&
         !check(TokenKind::Eof)) {
    auto S = parseStmt();
    if (!S)
      return false;
    Out.push_back(std::move(S));
    skipNewlines();
  }
  return true;
}

std::unique_ptr<Stmt> Parser::parseStmt() {
  if (check(TokenKind::KwIf))
    return parseIf();
  return parseAssign();
}

std::unique_ptr<Stmt> Parser::parseIf() {
  const Level Nest(IfNesting);
  if (IfNesting > MaxNestingDepth) {
    tooDeep("if block");
    return nullptr;
  }
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::If;
  S->Line = peek().Line;
  advance(); // 'if'
  if (!expect(TokenKind::LParen, "after 'if'"))
    return nullptr;
  if (!parseCondition(S->If.Cond))
    return nullptr;
  if (!expect(TokenKind::RParen, "to close the condition"))
    return nullptr;
  if (!expect(TokenKind::KwThen, "after the condition"))
    return nullptr;
  if (!parseStmtList(S->If.Then))
    return nullptr;
  if (accept(TokenKind::KwElse)) {
    if (!parseStmtList(S->If.Else))
      return nullptr;
  }
  if (!expect(TokenKind::KwEnd, "to close the if"))
    return nullptr;
  return S;
}

std::unique_ptr<Stmt> Parser::parseAssign() {
  if (!check(TokenKind::Identifier)) {
    fail("expected a statement");
    return nullptr;
  }
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::Assign;
  S->Line = peek().Line;
  S->Assign.Name = advance().Text;
  if (accept(TokenKind::LBracket)) {
    S->Assign.IsArray = true;
    if (!parseArrayIndex(S->Assign.Offset, S->Assign.Stride,
                         S->Assign.IndexVar))
      return nullptr;
  }
  if (!expect(TokenKind::Assign, "in assignment"))
    return nullptr;
  S->Assign.Value = parseExpr();
  if (!S->Assign.Value)
    return nullptr;
  return S;
}

bool Parser::parseArrayIndex(int &OffsetOut, int &StrideOut,
                             std::string &IndexVarOut) {
  // Subscripts are affine in the induction variable — [i], [i +/- d],
  // [c*i], [c*i +/- d] — or data-dependent through a bare scalar: [x].
  StrideOut = 1;
  IndexVarOut.clear();
  bool SawStride = false;
  if (check(TokenKind::Number)) {
    const double C = advance().NumberValue;
    if (C != std::floor(C) || C < 1)
      return fail("subscript strides must be positive integers");
    StrideOut = static_cast<int>(C);
    SawStride = true;
    if (!expect(TokenKind::Star, "between stride and induction variable"))
      return false;
  }
  if (!check(TokenKind::Identifier))
    return fail("array subscripts must be affine in '" + Counter + "'");
  if (peek().Text != Counter) {
    // Data-dependent subscript: a bare scalar identifier, nothing else.
    if (SawStride)
      return fail("data-dependent subscripts may not carry a stride");
    IndexVarOut = advance().Text;
    OffsetOut = 0;
    if (check(TokenKind::Plus) || check(TokenKind::Minus))
      return fail("data-dependent subscripts may not carry an offset");
    if (!expect(TokenKind::RBracket, "to close the subscript"))
      return false;
    return true;
  }
  advance();
  OffsetOut = 0;
  if (accept(TokenKind::Plus) || check(TokenKind::Minus)) {
    const bool Neg = check(TokenKind::Minus);
    if (Neg)
      advance();
    if (!check(TokenKind::Number))
      return fail("expected constant subscript offset");
    const double Off = advance().NumberValue;
    if (Off != std::floor(Off))
      return fail("subscript offsets must be integers");
    OffsetOut = static_cast<int>(Neg ? -Off : Off);
  }
  if (!expect(TokenKind::RBracket, "to close the subscript"))
    return false;
  return true;
}

std::unique_ptr<Expr> Parser::parseExpr() {
  auto Lhs = parseTerm();
  if (!Lhs)
    return nullptr;
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    const bool IsAdd = advance().Kind == TokenKind::Plus;
    auto Rhs = parseTerm();
    if (!Rhs)
      return nullptr;
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Binary;
    Node->Op = IsAdd ? BinaryOp::Add : BinaryOp::Sub;
    Node->Line = Lhs->Line;
    Node->Lhs = std::move(Lhs);
    Node->Rhs = std::move(Rhs);
    Lhs = bounded(std::move(Node));
    if (!Lhs)
      return nullptr;
  }
  return Lhs;
}

std::unique_ptr<Expr> Parser::parseTerm() {
  auto Lhs = parseFactor();
  if (!Lhs)
    return nullptr;
  while (check(TokenKind::Star) || check(TokenKind::Slash)) {
    const bool IsMul = advance().Kind == TokenKind::Star;
    auto Rhs = parseFactor();
    if (!Rhs)
      return nullptr;
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Binary;
    Node->Op = IsMul ? BinaryOp::Mul : BinaryOp::Div;
    Node->Line = Lhs->Line;
    Node->Lhs = std::move(Lhs);
    Node->Rhs = std::move(Rhs);
    Lhs = bounded(std::move(Node));
    if (!Lhs)
      return nullptr;
  }
  return Lhs;
}

std::unique_ptr<Expr> Parser::parseFactor() {
  // Parentheses build no node, so the parser's own recursion is bounded
  // here rather than by node height.
  const Level Nest(ExprNesting);
  if (ExprNesting > MaxNestingDepth) {
    tooDeep("expression");
    return nullptr;
  }
  const int Line = peek().Line;
  if (accept(TokenKind::LParen)) {
    auto E = parseExpr();
    if (!E)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close the expression"))
      return nullptr;
    return E;
  }
  if (accept(TokenKind::Minus)) {
    auto Operand = parseFactor();
    if (!Operand)
      return nullptr;
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Unary;
    Node->Line = Line;
    Node->Lhs = std::move(Operand);
    return bounded(std::move(Node));
  }
  if (accept(TokenKind::KwSqrt)) {
    if (!expect(TokenKind::LParen, "after sqrt"))
      return nullptr;
    auto Operand = parseExpr();
    if (!Operand)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close sqrt"))
      return nullptr;
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Sqrt;
    Node->Line = Line;
    Node->Lhs = std::move(Operand);
    return bounded(std::move(Node));
  }
  if (check(TokenKind::Number)) {
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Number;
    Node->Line = Line;
    Node->Number = advance().NumberValue;
    return Node;
  }
  if (check(TokenKind::Identifier)) {
    auto Node = std::make_unique<Expr>();
    Node->Line = Line;
    Node->Name = advance().Text;
    if (accept(TokenKind::LBracket)) {
      Node->Kind = ExprKind::ArrayRef;
      if (!parseArrayIndex(Node->Offset, Node->Stride, Node->IndexVar))
        return nullptr;
    } else {
      Node->Kind = ExprKind::Scalar;
    }
    return Node;
  }
  fail("expected an expression");
  return nullptr;
}

bool Parser::parseCondition(Condition &Out) {
  Out.Line = peek().Line;
  Out.Lhs = parseExpr();
  if (!Out.Lhs)
    return false;
  switch (peek().Kind) {
  case TokenKind::Lt:
    Out.Op = CmpOp::Lt;
    break;
  case TokenKind::Le:
    Out.Op = CmpOp::Le;
    break;
  case TokenKind::Gt:
    Out.Op = CmpOp::Gt;
    break;
  case TokenKind::Ge:
    Out.Op = CmpOp::Ge;
    break;
  case TokenKind::EqEq:
    Out.Op = CmpOp::Eq;
    break;
  case TokenKind::Ne:
    Out.Op = CmpOp::Ne;
    break;
  default:
    return fail("expected a comparison operator");
  }
  advance();
  Out.Rhs = parseExpr();
  return Out.Rhs != nullptr;
}

} // namespace

std::unique_ptr<Program> lsms::parseProgram(const std::string &Source,
                                            std::string &ErrorOut) {
  std::vector<Token> Tokens;
  if (!tokenize(Source, Tokens, ErrorOut))
    return nullptr;
  Parser P(std::move(Tokens), ErrorOut);
  return P.run();
}
