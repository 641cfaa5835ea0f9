// Seeded query-text fuzz: mutates known-good CEPR-QL texts (the examples
// in docs/LANGUAGE.md plus queries from the test suites) by deleting,
// duplicating and splicing tokens and by nesting fragments past the parser's
// nesting and height limits, then runs the full parse -> analyze -> compile path. Every
// input must come back as a Status without crashing, and every parse error
// must name its position.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <random>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "plan/compiler.h"
#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;

// The ```sql blocks of the language reference.
std::vector<std::string> LanguageDocExamples() {
  std::ifstream in(CEPR_LANGUAGE_DOC);
  EXPECT_TRUE(in.good()) << "cannot read " << CEPR_LANGUAGE_DOC;
  std::vector<std::string> out;
  std::string line;
  std::string block;
  bool in_sql = false;
  while (std::getline(in, line)) {
    if (!in_sql && line.rfind("```sql", 0) == 0) {
      in_sql = true;
      block.clear();
    } else if (in_sql && line.rfind("```", 0) == 0) {
      in_sql = false;
      out.push_back(block);
    } else if (in_sql) {
      block += line + "\n";
    }
  }
  return out;
}

std::vector<std::string> Corpus() {
  std::vector<std::string> corpus = LanguageDocExamples();
  for (const char* text : {
           "SELECT a.symbol, a.price AS start, LAST(b).price, c.price FROM Stock "
           "MATCH PATTERN SEQ(a, b+, !n, c) USING SKIP_TILL_ANY_MATCH "
           "PARTITION BY symbol WHERE a.price > 20 AND b[i].price < "
           "b[i-1].price AND c.price > a.price WITHIN 10 MINUTES RANK BY "
           "(a.price - MIN(b.price)) / a.price DESC LIMIT 5 EMIT ON WINDOW "
           "CLOSE;",
           "SELECT a.price, SUM(b.price), COUNT(b) FROM Stock MATCH PATTERN "
           "SEQ(a, b{2,4}, c) WHERE b[i].volume BETWEEN 10 AND 500 AND "
           "a.symbol IN ('IBM', 'MSFT') WITHIN 100 EVENTS RANK BY "
           "CASE WHEN COUNT(b) > 2 THEN AVG(b.price) ELSE -1 END ASC "
           "LIMIT 3 EMIT EVERY 10 EVENTS",
           "SELECT UPPER(a.symbol), CONCAT(a.symbol, '-', c.symbol), "
           "SUBSTR(a.symbol, 1, 2), LENGTH(c.symbol) FROM Stock MATCH PATTERN "
           "SEQ(a, b*, c) USING STRICT_CONTIGUITY WHERE NOT (c.price <= "
           "a.price) OR ABS(c.price - a.price) >= POW(2, 3) RANK BY "
           "GREATEST(FIRST(b).price, SQRT(a.volume)) + LEAST(LOG(c.price), "
           "EXP(1)) DESC LIMIT 10",
       }) {
    corpus.push_back(text);
  }
  return corpus;
}

// Splits query text into rough tokens: quoted strings, runs of identifier
// characters, runs of comparison characters, and single other punctuation.
// Rejoined with spaces the text means the same.
std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (std::isspace(c)) {
      ++i;
    } else if (c == '\'') {
      const size_t end = text.find('\'', i + 1);
      const size_t stop = end == std::string::npos ? text.size() : end + 1;
      out.push_back(text.substr(i, stop - i));
      i = stop;
    } else if (std::isalnum(c) || c == '_' || c == '.') {
      const size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_' || text[i] == '.')) {
        ++i;
      }
      out.push_back(text.substr(start, i - start));
    } else if (std::strchr("<>=!", c) != nullptr) {
      const size_t start = i;
      while (i < text.size() && std::strchr("<>=!", text[i]) != nullptr) ++i;
      out.push_back(text.substr(start, i - start));
    } else {
      out.push_back(std::string(1, text[i]));
      ++i;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

class Mutator {
 public:
  Mutator(uint64_t seed, std::vector<std::vector<std::string>> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string Next() {
    std::vector<std::string> t = corpus_[Pick(corpus_.size())];
    const size_t mutations = 1 + Pick(3);
    for (size_t m = 0; m < mutations && !t.empty(); ++m) {
      const size_t at = Pick(t.size());
      switch (Pick(4)) {
        case 0:  // delete a token
          t.erase(t.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        case 1:  // duplicate a token
          t.insert(t.begin() + static_cast<std::ptrdiff_t>(at), t[at]);
          break;
        case 2: {  // splice in a run of tokens from another query
          const std::vector<std::string>& donor = corpus_[Pick(corpus_.size())];
          const size_t from = Pick(donor.size());
          const size_t len = 1 + Pick(std::min<size_t>(8, donor.size() - from));
          t.insert(t.begin() + static_cast<std::ptrdiff_t>(at),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + len));
          break;
        }
        default:  // nest the token at `at`, up to past the height limit
          Nest(&t, at, 1 + Pick(kMaxExprHeight + kMaxExprNesting));
          break;
      }
    }
    return Join(t);
  }

 private:
  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  void Nest(std::vector<std::string>* t, size_t at, size_t levels) {
    std::vector<std::string> prefix;
    std::vector<std::string> suffix;
    const size_t shape = Pick(4);
    for (size_t i = 0; i < levels; ++i) {
      if (shape == 0) {  // parentheses
        prefix.push_back("(");
        suffix.push_back(")");
      } else if (shape == 1) {  // prefix operators
        prefix.push_back(Pick(2) == 0 ? "NOT" : "-");
      } else if (shape == 2) {  // a right-leaning operator chain
        prefix.push_back("1");
        prefix.push_back("+");
        prefix.push_back("(");
        suffix.push_back(")");
      } else {  // a left-associative chain: tall without nesting
        prefix.push_back("1");
        prefix.push_back("*");
      }
    }
    t->insert(t->begin() + static_cast<std::ptrdiff_t>(at + 1), suffix.begin(),
              suffix.end());
    t->insert(t->begin() + static_cast<std::ptrdiff_t>(at), prefix.begin(),
              prefix.end());
  }

  std::mt19937_64 rng_;
  std::vector<std::vector<std::string>> corpus_;
};

TEST(QueryTextFuzzTest, MutatedQueriesReturnStatusWithPositions) {
  std::vector<std::vector<std::string>> corpus;
  for (const std::string& text : Corpus()) corpus.push_back(Tokens(text));
  ASSERT_GE(corpus.size(), 4u) << "docs/LANGUAGE.md lost its sql examples";

  // The unmutated corpus is valid CEPR-QL (CREATE STREAM blocks parse as
  // statements, not queries).
  for (const auto& tokens : corpus) {
    const std::string text = Join(tokens);
    if (text.rfind("CREATE", 0) == 0) continue;
    auto plan = CompileQueryText(text, StockSchema());
    EXPECT_TRUE(plan.ok()) << text << "\n" << plan.status().ToString();
  }

  const std::regex position("line [0-9]+, column [0-9]+");
  Mutator mutator(/*seed=*/0xC0FFEEu, corpus);
  int parse_errors = 0;
  int too_deep = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = mutator.Next();
    auto plan = CompileQueryText(text, StockSchema());
    if (plan.ok() || plan.status().code() != StatusCode::kParseError) continue;
    ++parse_errors;
    const std::string& message = plan.status().message();
    if (message.find("nested deeper") != std::string::npos ||
        message.find("taller than") != std::string::npos) {
      ++too_deep;
    }
    ASSERT_TRUE(std::regex_search(plan.status().message(), position))
        << "input " << i << ": " << text << "\n"
        << plan.status().ToString();
  }
  // The mutations must actually reach the parser's error paths, including
  // the height limit.
  EXPECT_GT(parse_errors, 1000);
  EXPECT_GT(too_deep, 25);
}

}  // namespace
}  // namespace cepr
