//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the loop DSL.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_FRONTEND_PARSER_H
#define LSMS_FRONTEND_PARSER_H

#include "frontend/Ast.h"

#include <memory>
#include <string>

namespace lsms {

/// Deepest expression tree, and deepest if nesting, the parser accepts.
/// The parser, the AST walkers and the tree's destructor all recurse once
/// per level, so this bound caps their stack use; real loops stay far
/// below it (the deepest expression in the kernels and the generated
/// suites has 9 levels, the deepest if nesting 2).
constexpr int MaxNestingDepth = 1000;

/// Parses \p Source into a Program. Returns nullptr and fills \p ErrorOut
/// on syntax errors and on nesting past MaxNestingDepth, which is refused
/// as each node is built, so no deeper tree ever exists.
std::unique_ptr<Program> parseProgram(const std::string &Source,
                                      std::string &ErrorOut);

} // namespace lsms

#endif // LSMS_FRONTEND_PARSER_H
