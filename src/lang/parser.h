#ifndef CEPR_LANG_PARSER_H_
#define CEPR_LANG_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "lang/ast.h"

namespace cepr {

/// Deepest the parser nests an expression: parentheses, prefix NOT and `-`,
/// function arguments and CASE arms each open a level. Every level costs
/// the parser a dozen stack frames, so this is tighter than the tree
/// height limit (kMaxExprHeight), which operator chains and IN lists reach
/// without nesting.
constexpr int kMaxExprNesting = 256;

/// Parses one CEPR-QL pattern query (SELECT ... MATCH PATTERN ...).
/// Returns ParseError with source position on malformed input, including
/// expressions past kMaxExprNesting or kMaxExprHeight. The result
/// is unresolved: run the semantic Analyzer before compiling.
Result<QueryAst> ParseQuery(std::string_view text);

/// Parses one CREATE STREAM statement.
Result<CreateStreamAst> ParseCreateStream(std::string_view text);

/// Parses either statement kind, dispatching on the first token.
Result<StatementAst> ParseStatement(std::string_view text);

/// Parses a standalone expression (used by tests and interactive tools).
Result<ExprPtr> ParseExpression(std::string_view text);

}  // namespace cepr

#endif  // CEPR_LANG_PARSER_H_
