#ifndef CEPR_PERFBENCH_JSON_H_
#define CEPR_PERFBENCH_JSON_H_

// Minimal JSON reader for the metrics snapshot a CeprServer returns over
// the wire (MetricsSnapshot::ToJson), so the wire workload reads the same
// counters the in-process workloads read from Engine::Snapshot().

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace cepr {
namespace perfbench {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  static Result<Json> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  double number() const { return number_; }
  const std::string& str() const { return str_; }
  const std::vector<Json>& items() const { return items_; }

  /// Member `key` of an object; a shared null value when absent.
  const Json& operator[](std::string_view key) const;
  /// Member `key` as a number (0 when absent or not a number).
  double Num(std::string_view key) const { return (*this)[key].number(); }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  double number_ = 0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::string> keys_;  // parallel to items_ for objects
};

}  // namespace perfbench
}  // namespace cepr

#endif  // CEPR_PERFBENCH_JSON_H_
