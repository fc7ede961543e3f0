//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax tree for the loop DSL. Expressions are real-valued;
/// conditions are comparisons between expressions. Statements are array or
/// scalar assignments and structured if/then/else, which the compiler
/// if-converts into predicated code (Section 2.2).
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_FRONTEND_AST_H
#define LSMS_FRONTEND_AST_H

#include <memory>
#include <string>
#include <vector>

namespace lsms {

enum class ExprKind : uint8_t {
  Number,   ///< literal constant
  Scalar,   ///< scalar variable reference
  ArrayRef, ///< a[i + Offset]
  Unary,    ///< -e
  Binary,   ///< e1 op e2 with op in + - * /
  Sqrt,     ///< sqrt(e)
};

enum class BinaryOp : uint8_t { Add, Sub, Mul, Div };

struct Expr {
  ExprKind Kind;
  double Number = 0;          // Number
  std::string Name;           // Scalar / ArrayRef
  int Offset = 0;             // ArrayRef: a[Stride*i + Offset]
  int Stride = 1;             // ArrayRef subscript stride
  /// ArrayRef with a data-dependent subscript a[x]: the scalar variable
  /// naming the element index. Empty for affine subscripts.
  std::string IndexVar;
  BinaryOp Op = BinaryOp::Add; // Binary
  std::unique_ptr<Expr> Lhs, Rhs; // Binary / Unary(Lhs) / Sqrt(Lhs)
  int Line = 0;
  int Height = 1; ///< levels in this subtree (1 for a leaf)
};

enum class CmpOp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

struct Condition {
  CmpOp Op = CmpOp::Lt;
  std::unique_ptr<Expr> Lhs, Rhs;
  int Line = 0;
};

struct Stmt;

struct IfStmt {
  Condition Cond;
  std::vector<std::unique_ptr<Stmt>> Then;
  std::vector<std::unique_ptr<Stmt>> Else;
};

struct AssignStmt {
  bool IsArray = false;
  std::string Name;
  int Offset = 0; ///< array targets: a[Stride*i + Offset]
  int Stride = 1;
  std::string IndexVar; ///< data-dependent target a[x]; empty when affine
  std::unique_ptr<Expr> Value;
};

enum class StmtKind : uint8_t { Assign, If };

struct Stmt {
  StmtKind Kind;
  AssignStmt Assign; // Kind == Assign
  IfStmt If;         // Kind == If
  int Line = 0;
};

/// A parsed program: optional parameters plus one loop.
struct Program {
  std::string Name;
  /// Declared loop-invariant parameters with initial values.
  std::vector<std::pair<std::string, double>> Params;
  std::string Counter; ///< induction variable name (usually "i")
  long First = 1;      ///< lower bound of the iteration space
  /// While-style exit clause (`loop i = 1, n while (cond)`): do-while
  /// semantics — the condition is evaluated at the *end* of each iteration
  /// and the first iteration where it is false is the last one executed.
  bool HasExit = false;
  Condition Exit;
  std::vector<std::unique_ptr<Stmt>> Body;
};

} // namespace lsms

#endif // LSMS_FRONTEND_AST_H
