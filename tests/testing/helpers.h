#ifndef CEPR_TESTS_TESTING_HELPERS_H_
#define CEPR_TESTS_TESTING_HELPERS_H_

#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "event/event.h"
#include "expr/eval.h"
#include "expr/typecheck.h"

namespace cepr {
namespace testing {

/// Stock(symbol STRING, price FLOAT RANGE [1,1000], volume INT RANGE
/// [1,10000]) — the workhorse schema of the test suite.
inline SchemaPtr StockSchema() {
  static const SchemaPtr kSchema =
      Schema::Make("Stock",
                   {Attribute{"symbol", ValueType::kString, std::nullopt},
                    Attribute{"price", ValueType::kFloat, AttributeRange{1, 1000}},
                    Attribute{"volume", ValueType::kInt, AttributeRange{1, 10000}}})
          .value();
  return kSchema;
}

/// Layout for PATTERN SEQ(a, b+, c) over Stock.
inline BindingLayout AbcLayout() {
  return BindingLayout({PatternVar{"a", false, false, ""},
                        PatternVar{"b", true, false, ""},
                        PatternVar{"c", false, false, ""}},
                       StockSchema());
}

/// A scratch-file path unique to the running test and process:
/// TempDir() + "<suite>.<test>.<pid>.<tag>" ('/' of parameterized names
/// becomes '_'; inside SetUpTestSuite the suite name stands alone). ctest
/// runs every discovered test as its own process, concurrently under -j,
/// so fixed file names would let tests overwrite each other's files.
inline std::string TestTempPath(const std::string& tag) {
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::string name;
  if (const ::testing::TestInfo* test = unit.current_test_info()) {
    name = std::string(test->test_suite_name()) + "." + test->name();
  } else if (const ::testing::TestSuite* suite = unit.current_test_suite()) {
    name = suite->name();
  }
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + name + "." + std::to_string(::getpid()) +
         "." + tag;
}

/// Builds a Stock event.
inline Event Tick(Timestamp ts, double price, int64_t volume = 100,
                  const std::string& symbol = "S0") {
  return Event(StockSchema(), ts,
               {Value::String(symbol), Value::Float(price), Value::Int(volume)});
}

/// Hand-wired EvalContext for expression unit tests: bindings are plain
/// event vectors per variable index, plus explicit aggregate slot values
/// and an optional candidate.
class FakeContext : public EvalContext {
 public:
  explicit FakeContext(size_t num_vars) : bindings_(num_vars) {}

  FakeContext& Bind(int var, Event event) {
    owned_.push_back(std::make_shared<Event>(std::move(event)));
    bindings_[static_cast<size_t>(var)].push_back(owned_.back().get());
    return *this;
  }
  FakeContext& Candidate(int var, const Event* event) {
    candidate_var_ = var;
    candidate_ = event;
    return *this;
  }
  FakeContext& Slot(int slot, double value) {
    if (slot >= static_cast<int>(slots_.size())) slots_.resize(slot + 1, 0.0);
    slots_[static_cast<size_t>(slot)] = value;
    return *this;
  }

  const Event* SingleEvent(int var) const override {
    if (var == candidate_var_) return candidate_;
    const auto& b = bindings_[static_cast<size_t>(var)];
    return b.empty() ? nullptr : b.front();
  }
  const Event* KleeneFirst(int var) const override {
    const auto& b = bindings_[static_cast<size_t>(var)];
    return b.empty() ? nullptr : b.front();
  }
  const Event* KleeneLast(int var) const override {
    const auto& b = bindings_[static_cast<size_t>(var)];
    return b.empty() ? nullptr : b.back();
  }
  const Event* KleeneCurrent(int var) const override {
    return var == candidate_var_ ? candidate_ : nullptr;
  }
  int64_t KleeneCount(int var) const override {
    return static_cast<int64_t>(bindings_[static_cast<size_t>(var)].size());
  }
  double AggValue(int slot) const override {
    return slots_[static_cast<size_t>(slot)];
  }

 private:
  std::vector<std::vector<const Event*>> bindings_;
  std::vector<std::shared_ptr<Event>> owned_;
  std::vector<double> slots_;
  int candidate_var_ = -1;
  const Event* candidate_ = nullptr;
};

}  // namespace testing
}  // namespace cepr

#endif  // CEPR_TESTS_TESTING_HELPERS_H_
