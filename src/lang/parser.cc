#include "lang/parser.h"

#include <optional>
#include <utility>

#include "common/strings.h"
#include "lang/lexer.h"

namespace cepr {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryAst> ParseQuery() {
    QueryAst q;
    CEPR_RETURN_IF_ERROR(ParseQueryInto(&q));
    CEPR_RETURN_IF_ERROR(ExpectEnd());
    return q;
  }

  Result<CreateStreamAst> ParseCreateStream() {
    CreateStreamAst c;
    CEPR_RETURN_IF_ERROR(ParseCreateStreamInto(&c));
    CEPR_RETURN_IF_ERROR(ExpectEnd());
    return c;
  }

  Result<StatementAst> ParseStatement() {
    StatementAst st;
    if (Check(TokenKind::kCreate)) {
      st.create_stream = std::make_unique<CreateStreamAst>();
      CEPR_RETURN_IF_ERROR(ParseCreateStreamInto(st.create_stream.get()));
    } else {
      st.query = std::make_unique<QueryAst>();
      CEPR_RETURN_IF_ERROR(ParseQueryInto(st.query.get()));
    }
    CEPR_RETURN_IF_ERROR(ExpectEnd());
    return st;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    CEPR_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    CEPR_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  // -- Token plumbing ----------------------------------------------------

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Previous() const { return tokens_[pos_ - 1]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool AtEnd() const { return Check(TokenKind::kEof); }

  const Token& Advance() {
    if (!AtEnd()) ++pos_;
    return Previous();
  }

  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }

  // Every parse error names the offending token and its position: the
  // next token by default, or `at` for one already consumed.
  Status Error(const std::string& msg) const { return Error(msg, Peek()); }
  Status Error(const std::string& msg, const Token& at) const {
    return Status::ParseError(msg + ", got " + at.Describe() + " at line " +
                              std::to_string(at.line) + ", column " +
                              std::to_string(at.column));
  }

  // Runs `parse` one nesting level deeper: hostile text cannot recurse the
  // parser past kMaxExprNesting levels.
  template <typename F>
  Result<ExprPtr> Nested(F parse) {
    if (depth_ >= kMaxExprNesting) {
      return Error("expression nested deeper than " +
                   std::to_string(kMaxExprNesting) + " levels");
    }
    ++depth_;
    Result<ExprPtr> e = parse();
    --depth_;
    return e;
  }

  // Rejects a node taller than kMaxExprHeight: operator chains and IN lists
  // grow the tree without nesting the parser, and every later pass over
  // the tree recurses once per level.
  Result<ExprPtr> Bounded(ExprPtr e) const {
    if (e->height > kMaxExprHeight) {
      return Error("expression taller than " + std::to_string(kMaxExprHeight) +
                   " levels");
    }
    return e;
  }

  // IN and BETWEEN desugar by copying their left operand. One statement may
  // copy at most kMaxCopiedNodes nodes in all, so nesting them cannot grow
  // the tree exponentially.
  static constexpr size_t kMaxCopiedNodes = size_t{1} << 16;

  // Nodes in `e`, counting no further than `limit`.
  static size_t CountNodes(const Expr& e, size_t limit) {
    size_t n = 1;
    for (const auto& c : e.children) {
      if (n >= limit) break;
      n += CountNodes(*c, limit - n);
    }
    return n;
  }

  Result<ExprPtr> CopyOperand(const Expr& e) {
    const size_t n = CountNodes(e, copy_budget_ + 1);
    if (n > copy_budget_) {
      return Error("IN / BETWEEN would copy more than " +
                   std::to_string(kMaxCopiedNodes) + " expression nodes");
    }
    copy_budget_ -= n;
    return e.Clone();
  }

  Status Expect(TokenKind kind, const std::string& context) {
    if (Match(kind)) return Status::OK();
    return Error(std::string("expected ") + TokenKindToString(kind) + " " + context);
  }

  Result<std::string> ExpectIdentifier(const std::string& context) {
    if (!Check(TokenKind::kIdentifier)) {
      return Error("expected identifier " + context);
    }
    return Advance().text;
  }

  // True iff the current token is the soft keyword `word` (an identifier
  // compared case-insensitively).
  bool CheckSoft(std::string_view word) const {
    return Check(TokenKind::kIdentifier) && EqualsIgnoreCase(Peek().text, word);
  }

  bool MatchSoft(std::string_view word) {
    if (!CheckSoft(word)) return false;
    Advance();
    return true;
  }

  Status ExpectEnd() {
    Match(TokenKind::kSemicolon);
    if (!AtEnd()) return Error("expected end of statement");
    return Status::OK();
  }

  // -- Statements ----------------------------------------------------------

  Status ParseCreateStreamInto(CreateStreamAst* out) {
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kCreate, "to begin CREATE STREAM"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kStream, "after CREATE"));
    CEPR_ASSIGN_OR_RETURN(out->name, ExpectIdentifier("as stream name"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "to open attribute list"));
    do {
      Attribute attr;
      CEPR_ASSIGN_OR_RETURN(attr.name, ExpectIdentifier("as attribute name"));
      CEPR_ASSIGN_OR_RETURN(const std::string type_name,
                            ExpectIdentifier("as attribute type"));
      CEPR_ASSIGN_OR_RETURN(attr.type, ValueTypeFromString(type_name));
      if (MatchSoft("range")) {
        CEPR_RETURN_IF_ERROR(Expect(TokenKind::kLBracket, "after RANGE"));
        CEPR_ASSIGN_OR_RETURN(const double lo, ParseSignedNumber());
        CEPR_RETURN_IF_ERROR(Expect(TokenKind::kComma, "between range bounds"));
        CEPR_ASSIGN_OR_RETURN(const double hi, ParseSignedNumber());
        CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "to close RANGE"));
        attr.range = AttributeRange{lo, hi};
      }
      out->attributes.push_back(std::move(attr));
    } while (Match(TokenKind::kComma));
    return Expect(TokenKind::kRParen, "to close attribute list");
  }

  Result<double> ParseSignedNumber() {
    const bool neg = Match(TokenKind::kMinus);
    double v = 0.0;
    if (Match(TokenKind::kInteger)) {
      v = static_cast<double>(Previous().int_value);
    } else if (Match(TokenKind::kFloat)) {
      v = Previous().float_value;
    } else {
      return Error("expected a number");
    }
    return neg ? -v : v;
  }

  Status ParseQueryInto(QueryAst* q) {
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kSelect, "to begin query"));
    if (!Match(TokenKind::kStar)) {
      do {
        SelectItemAst item;
        CEPR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Match(TokenKind::kAs)) {
          CEPR_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("after AS"));
        }
        q->select.push_back(std::move(item));
      } while (Match(TokenKind::kComma));
    }

    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kFrom, "after SELECT list"));
    CEPR_ASSIGN_OR_RETURN(q->stream_name, ExpectIdentifier("as stream name"));

    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kMatch, "after FROM"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kPattern, "after MATCH"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kSeq, "after PATTERN"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "to open SEQ"));
    do {
      PatternComponentAst comp;
      comp.negated = Match(TokenKind::kBang);
      CEPR_ASSIGN_OR_RETURN(std::string first,
                            ExpectIdentifier("as pattern variable"));
      if (Check(TokenKind::kIdentifier)) {
        comp.type_tag = std::move(first);
        comp.var = Advance().text;
      } else {
        comp.var = std::move(first);
      }
      CEPR_RETURN_IF_ERROR(ParseComponentSuffix(&comp));
      q->pattern.push_back(std::move(comp));
    } while (Match(TokenKind::kComma));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close SEQ"));

    if (Match(TokenKind::kUsing)) {
      CEPR_ASSIGN_OR_RETURN(const std::string name,
                            ExpectIdentifier("as selection strategy"));
      if (EqualsIgnoreCase(name, "strict_contiguity") ||
          EqualsIgnoreCase(name, "strict")) {
        q->strategy = SelectionStrategy::kStrictContiguity;
      } else if (EqualsIgnoreCase(name, "skip_till_next_match")) {
        q->strategy = SelectionStrategy::kSkipTillNext;
      } else if (EqualsIgnoreCase(name, "skip_till_any_match")) {
        q->strategy = SelectionStrategy::kSkipTillAny;
      } else {
        return Error("unknown selection strategy '" + name +
                         "' (expected STRICT_CONTIGUITY, SKIP_TILL_NEXT_MATCH or "
                         "SKIP_TILL_ANY_MATCH)",
                     Previous());
      }
    }

    if (Match(TokenKind::kPartition)) {
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kBy, "after PARTITION"));
      CEPR_ASSIGN_OR_RETURN(q->partition_attr,
                            ExpectIdentifier("as partition attribute"));
    }

    if (Match(TokenKind::kWhere)) {
      CEPR_ASSIGN_OR_RETURN(q->where, ParseExpr());
    }

    if (Match(TokenKind::kWithin)) {
      if (!Match(TokenKind::kInteger)) return Error("expected duration after WITHIN");
      const int64_t amount = Previous().int_value;
      if (MatchSoft("events")) {
        q->within_events = amount;  // count-based span
      } else {
        CEPR_ASSIGN_OR_RETURN(const Timestamp unit, ParseTimeUnit());
        if (__builtin_mul_overflow(amount, unit, &q->within_micros)) {
          return Error("WITHIN span out of range", Previous());
        }
      }
    }

    if (Match(TokenKind::kRank)) {
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kBy, "after RANK"));
      CEPR_ASSIGN_OR_RETURN(q->rank_by, ParseExpr());
      if (Match(TokenKind::kDesc)) {
        q->rank_desc = true;
      } else if (Match(TokenKind::kAsc)) {
        q->rank_desc = false;
      }
    }

    if (Match(TokenKind::kLimit)) {
      if (!Match(TokenKind::kInteger)) return Error("expected integer after LIMIT");
      // The lexer yields only non-negative integer literals ('-' is its own
      // token), so no LIMIT value can be negative.
      q->limit = Previous().int_value;
    }

    if (Match(TokenKind::kEmit)) {
      if (Match(TokenKind::kOn)) {
        if (MatchSoft("complete")) {
          q->emit = EmitPolicy::kOnComplete;
        } else if (MatchSoft("window")) {
          if (!MatchSoft("close")) return Error("expected CLOSE after EMIT ON WINDOW");
          q->emit = EmitPolicy::kOnWindowClose;
        } else {
          return Error("expected COMPLETE or WINDOW CLOSE after EMIT ON");
        }
      } else if (MatchSoft("every")) {
        if (!Match(TokenKind::kInteger)) return Error("expected count after EMIT EVERY");
        q->emit_every_n = Previous().int_value;
        if (q->emit_every_n <= 0) {
          return Error("EMIT EVERY count must be positive", Previous());
        }
        if (!MatchSoft("events")) return Error("expected EVENTS after EMIT EVERY n");
        q->emit = EmitPolicy::kEveryNEvents;
      } else {
        return Error("expected ON or EVERY after EMIT");
      }
    }

    if (MatchSoft("into")) {
      CEPR_ASSIGN_OR_RETURN(q->into_stream,
                            ExpectIdentifier("as derived stream name"));
    }
    return Status::OK();
  }

  // Parses the repetition suffix after a component variable:
  // nothing | `+` | `*` | `?` | `{m}` | `{m,}` | `{m,n}`.
  Status ParseComponentSuffix(PatternComponentAst* comp) {
    if (Match(TokenKind::kPlus)) {
      comp->kleene = true;
      comp->min_iters = 1;
      comp->max_iters = -1;
      return Status::OK();
    }
    if (Match(TokenKind::kStar)) {
      comp->kleene = true;
      comp->min_iters = 0;
      comp->max_iters = -1;
      return Status::OK();
    }
    if (Match(TokenKind::kQuestion)) {
      comp->optional = true;
      return Status::OK();
    }
    if (Match(TokenKind::kLBrace)) {
      if (!Match(TokenKind::kInteger)) {
        return Error("expected minimum iteration count after '{'");
      }
      comp->kleene = true;
      comp->min_iters = Previous().int_value;
      comp->max_iters = comp->min_iters;  // {m} = exactly m
      if (Match(TokenKind::kComma)) {
        if (Match(TokenKind::kInteger)) {
          comp->max_iters = Previous().int_value;
        } else {
          comp->max_iters = -1;  // {m,} = at least m
        }
      }
      return Expect(TokenKind::kRBrace, "to close iteration bounds");
    }
    return Status::OK();
  }

  Result<Timestamp> ParseTimeUnit() {
    CEPR_ASSIGN_OR_RETURN(const std::string unit, ExpectIdentifier("as time unit"));
    if (EqualsIgnoreCase(unit, "microseconds") || EqualsIgnoreCase(unit, "microsecond")) {
      return Timestamp{1};
    }
    if (EqualsIgnoreCase(unit, "milliseconds") || EqualsIgnoreCase(unit, "millisecond")) {
      return Timestamp{1000};
    }
    if (EqualsIgnoreCase(unit, "seconds") || EqualsIgnoreCase(unit, "second")) {
      return kMicrosPerSecond;
    }
    if (EqualsIgnoreCase(unit, "minutes") || EqualsIgnoreCase(unit, "minute")) {
      return kMicrosPerMinute;
    }
    if (EqualsIgnoreCase(unit, "hours") || EqualsIgnoreCase(unit, "hour")) {
      return kMicrosPerHour;
    }
    return Error("unknown time unit '" + unit + "'", Previous());
  }

  // -- Expressions (precedence climbing) ---------------------------------

  Result<ExprPtr> ParseExpr() {
    return Nested([this] { return ParseOr(); });
  }

  Result<ExprPtr> ParseOr() {
    CEPR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Match(TokenKind::kOr)) {
      CEPR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      CEPR_ASSIGN_OR_RETURN(
          lhs, Bounded(Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    CEPR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Match(TokenKind::kAnd)) {
      CEPR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      CEPR_ASSIGN_OR_RETURN(
          lhs, Bounded(Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Match(TokenKind::kNot)) {
      CEPR_ASSIGN_OR_RETURN(ExprPtr inner, Nested([this] { return ParseNot(); }));
      return Bounded(Expr::Unary(UnaryOp::kNot, std::move(inner)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    CEPR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (MatchSoft("between")) return ParseBetween(std::move(lhs));
    if (MatchSoft("in")) return ParseInList(std::move(lhs));

    BinaryOp op;
    if (Match(TokenKind::kLt)) {
      op = BinaryOp::kLt;
    } else if (Match(TokenKind::kLe)) {
      op = BinaryOp::kLe;
    } else if (Match(TokenKind::kGt)) {
      op = BinaryOp::kGt;
    } else if (Match(TokenKind::kGe)) {
      op = BinaryOp::kGe;
    } else if (Match(TokenKind::kEq)) {
      op = BinaryOp::kEq;
    } else if (Match(TokenKind::kNe)) {
      op = BinaryOp::kNe;
    } else {
      return lhs;
    }
    CEPR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs)));
  }

  // BETWEEN and IN sit in functions of their own, off the frame of
  // ParseComparison, which every nesting level passes through.

  // x BETWEEN lo AND hi  ==>  (x >= lo AND x <= hi); BETWEEN consumed.
  Result<ExprPtr> ParseBetween(ExprPtr lhs) {
    CEPR_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kAnd, "in BETWEEN ... AND ..."));
    CEPR_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    CEPR_ASSIGN_OR_RETURN(ExprPtr lhs_copy, CopyOperand(*lhs));
    ExprPtr ge = Expr::Binary(BinaryOp::kGe, std::move(lhs_copy), std::move(lo));
    ExprPtr le = Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(hi));
    return Bounded(Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le)));
  }

  // x IN (e1, e2, ...)  ==>  (x = e1 OR x = e2 OR ...); IN consumed.
  Result<ExprPtr> ParseInList(ExprPtr lhs) {
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after IN"));
    ExprPtr disjunction;
    do {
      CEPR_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
      CEPR_ASSIGN_OR_RETURN(ExprPtr lhs_copy, CopyOperand(*lhs));
      ExprPtr eq = Expr::Binary(BinaryOp::kEq, std::move(lhs_copy), std::move(item));
      CEPR_ASSIGN_OR_RETURN(
          disjunction,
          Bounded(disjunction == nullptr
                      ? std::move(eq)
                      : Expr::Binary(BinaryOp::kOr, std::move(disjunction),
                                     std::move(eq))));
    } while (Match(TokenKind::kComma));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close IN list"));
    return disjunction;
  }

  Result<ExprPtr> ParseAdditive() {
    CEPR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Match(TokenKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Match(TokenKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      CEPR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      CEPR_ASSIGN_OR_RETURN(lhs, Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    CEPR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Match(TokenKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (Match(TokenKind::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Match(TokenKind::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      CEPR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      CEPR_ASSIGN_OR_RETURN(lhs, Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Match(TokenKind::kMinus)) {
      CEPR_ASSIGN_OR_RETURN(ExprPtr inner, Nested([this] { return ParseUnary(); }));
      return Bounded(Expr::Unary(UnaryOp::kNeg, std::move(inner)));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    if (Match(TokenKind::kInteger)) return Expr::Literal(Value::Int(Previous().int_value));
    if (Match(TokenKind::kFloat)) return Expr::Literal(Value::Float(Previous().float_value));
    if (Match(TokenKind::kString)) return Expr::Literal(Value::String(Previous().text));
    if (Match(TokenKind::kTrue)) return Expr::Literal(Value::Bool(true));
    if (Match(TokenKind::kFalse)) return Expr::Literal(Value::Bool(false));
    if (Match(TokenKind::kNull)) return Expr::Literal(Value::Null());
    if (Match(TokenKind::kLParen)) {
      CEPR_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close expression"));
      return inner;
    }
    if (CheckSoft("case")) return ParseCase();
    if (Check(TokenKind::kIdentifier)) return ParseReferenceOrCall();
    return Error("expected an expression");
  }

  // CASE WHEN cond THEN value [WHEN ...]* [ELSE value] END
  Result<ExprPtr> ParseCase() {
    Advance();  // CASE
    std::vector<ExprPtr> children;
    bool saw_when = false;
    while (MatchSoft("when")) {
      saw_when = true;
      CEPR_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      if (!MatchSoft("then")) return Error("expected THEN in CASE");
      CEPR_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      children.push_back(std::move(cond));
      children.push_back(std::move(value));
    }
    if (!saw_when) return Error("expected WHEN after CASE");
    bool has_else = false;
    if (MatchSoft("else")) {
      has_else = true;
      CEPR_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      children.push_back(std::move(value));
    }
    if (!MatchSoft("end")) return Error("expected END to close CASE");
    return Bounded(Expr::Case(std::move(children), has_else));
  }

  // identifier already peeked: one of
  //   name '(' ...        aggregate or scalar function call
  //   name '.' attr       single-variable reference
  //   name '[' idx ']' '.' attr   Kleene iteration reference
  Result<ExprPtr> ParseReferenceOrCall() {
    const Token& name_token = Advance();
    const std::string& name = name_token.text;

    if (Match(TokenKind::kLParen)) return ParseCall(name_token);

    if (Match(TokenKind::kDot)) {
      CEPR_ASSIGN_OR_RETURN(const std::string attr,
                            ExpectIdentifier("as attribute name"));
      return Expr::VarRef(name, attr);
    }

    if (Match(TokenKind::kLBracket)) {
      IterKind iter;
      if (Match(TokenKind::kInteger)) {
        if (Previous().int_value != 1) {
          return Error("only [1], [i] and [i-1] iteration indexes are supported",
                       Previous());
        }
        iter = IterKind::kFirst;
      } else if (MatchSoft("i")) {
        if (Match(TokenKind::kMinus)) {
          if (!Match(TokenKind::kInteger) || Previous().int_value != 1) {
            return Error("expected 1 after [i-");
          }
          iter = IterKind::kPrev;
        } else {
          iter = IterKind::kCurrent;
        }
      } else {
        return Error("expected iteration index [1], [i] or [i-1]");
      }
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "to close iteration index"));
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kDot, "after iteration index"));
      CEPR_ASSIGN_OR_RETURN(const std::string attr,
                            ExpectIdentifier("as attribute name"));
      return Expr::IterRef(name, attr, iter);
    }

    return Error("expected '.', '(' or '[' after identifier '" + name + "'");
  }

  // `name_token` and '(' already consumed.
  Result<ExprPtr> ParseCall(const Token& name_token) {
    const std::string& name = name_token.text;
    for (const char* agg : {"min", "max", "sum", "avg", "count", "first", "last"}) {
      if (EqualsIgnoreCase(name, agg)) return ParseAggregate(name);
    }
    // Scalar functions.
    const std::optional<ScalarFunc> func = ScalarFuncNamed(name);
    if (!func.has_value()) {
      return Error("unknown function '" + name + "'", name_token);
    }
    std::vector<ExprPtr> args;
    if (!Check(TokenKind::kRParen)) {
      do {
        CEPR_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        args.push_back(std::move(arg));
      } while (Match(TokenKind::kComma));
    }
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close function call"));
    return Bounded(Expr::Func(*func, std::move(args)));
  }

  // An aggregate call, name and '(' consumed. Kept off ParseCall's frame,
  // which nesting through function arguments passes through.
  Result<ExprPtr> ParseAggregate(const std::string& name) {
    // Aggregates with attribute argument: MIN(b.price) etc.
    const bool is_minmaxsumavg =
        EqualsIgnoreCase(name, "min") || EqualsIgnoreCase(name, "max") ||
        EqualsIgnoreCase(name, "sum") || EqualsIgnoreCase(name, "avg");
    if (is_minmaxsumavg) {
      CEPR_ASSIGN_OR_RETURN(const std::string var,
                            ExpectIdentifier("as aggregate variable"));
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kDot, "in aggregate argument"));
      CEPR_ASSIGN_OR_RETURN(const std::string attr,
                            ExpectIdentifier("as aggregate attribute"));
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close aggregate"));
      AggFunc func = AggFunc::kMin;
      if (EqualsIgnoreCase(name, "max")) func = AggFunc::kMax;
      if (EqualsIgnoreCase(name, "sum")) func = AggFunc::kSum;
      if (EqualsIgnoreCase(name, "avg")) func = AggFunc::kAvg;
      return Expr::Aggregate(func, var, attr);
    }

    if (EqualsIgnoreCase(name, "count")) {
      CEPR_ASSIGN_OR_RETURN(const std::string var,
                            ExpectIdentifier("as COUNT variable"));
      CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close COUNT"));
      return Expr::Aggregate(AggFunc::kCount, var, "");
    }

    // FIRST / LAST.
    CEPR_ASSIGN_OR_RETURN(const std::string var,
                          ExpectIdentifier("as FIRST/LAST variable"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close FIRST/LAST"));
    CEPR_RETURN_IF_ERROR(Expect(TokenKind::kDot, "after FIRST/LAST"));
    CEPR_ASSIGN_OR_RETURN(const std::string attr,
                          ExpectIdentifier("as attribute name"));
    return Expr::Aggregate(
        EqualsIgnoreCase(name, "first") ? AggFunc::kFirst : AggFunc::kLast, var,
        attr);
  }

  static std::optional<ScalarFunc> ScalarFuncNamed(const std::string& name) {
    static constexpr std::pair<const char*, ScalarFunc> kFuncs[] = {
        {"abs", ScalarFunc::kAbs},         {"sqrt", ScalarFunc::kSqrt},
        {"log", ScalarFunc::kLog},         {"ln", ScalarFunc::kLog},
        {"exp", ScalarFunc::kExp},         {"pow", ScalarFunc::kPow},
        {"floor", ScalarFunc::kFloor},     {"ceil", ScalarFunc::kCeil},
        {"round", ScalarFunc::kRound},     {"least", ScalarFunc::kLeast},
        {"greatest", ScalarFunc::kGreatest}, {"upper", ScalarFunc::kUpper},
        {"lower", ScalarFunc::kLower},     {"length", ScalarFunc::kLength},
        {"concat", ScalarFunc::kConcat},   {"substr", ScalarFunc::kSubstr},
        {"substring", ScalarFunc::kSubstr},
    };
    for (const auto& [spelling, func] : kFuncs) {
      if (EqualsIgnoreCase(name, spelling)) return func;
    }
    return std::nullopt;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // expression nesting, see Nested
  size_t copy_budget_ = kMaxCopiedNodes;  // see CopyOperand
};

}  // namespace

Result<QueryAst> ParseQuery(std::string_view text) {
  CEPR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseQuery();
}

Result<CreateStreamAst> ParseCreateStream(std::string_view text) {
  CEPR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseCreateStream();
}

Result<StatementAst> ParseStatement(std::string_view text) {
  CEPR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseStatement();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  CEPR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseStandaloneExpression();
}

}  // namespace cepr
