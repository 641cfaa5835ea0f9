#include "json.h"

#include <cstdlib>

namespace cepr {
namespace perfbench {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Result<Json> ParseDocument() {
    Json v;
    if (!ParseValue(&v, 0)) return Error();
    SkipSpace();
    if (pos_ != s_.size()) return Error();
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error() const {
    return Status::Corrupt("malformed JSON at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'u') {  // metrics JSON never escapes non-ASCII; keep a marker
          if (pos_ + 4 > s_.size()) return false;
          pos_ += 4;
          c = '?';
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(Json* v, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const bool object = c == '{';
      const char close = object ? '}' : ']';
      v->kind_ = object ? Json::Kind::kObject : Json::Kind::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == close) {
        ++pos_;
        return true;
      }
      while (true) {
        if (object) {
          SkipSpace();
          std::string key;
          if (!ParseString(&key)) return false;
          SkipSpace();
          if (!Consume(":")) return false;
          v->keys_.push_back(std::move(key));
        }
        v->items_.emplace_back();
        if (!ParseValue(&v->items_.back(), depth + 1)) return false;
        SkipSpace();
        if (Consume(",")) continue;
        return Consume(std::string_view(&close, 1));
      }
    }
    if (c == '"') {
      v->kind_ = Json::Kind::kString;
      return ParseString(&v->str_);
    }
    if (Consume("true")) {
      v->kind_ = Json::Kind::kBool;
      v->number_ = 1;
      return true;
    }
    if (Consume("false")) {
      v->kind_ = Json::Kind::kBool;
      return true;
    }
    if (Consume("null")) return true;
    const std::string token(s_.substr(pos_, 64));
    char* end = nullptr;
    v->number_ = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) return false;
    v->kind_ = Json::Kind::kNumber;
    pos_ += static_cast<size_t>(end - token.c_str());
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

Result<Json> Json::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const Json& Json::operator[](std::string_view key) const {
  static const Json kNull;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return items_[i];
  }
  return kNull;
}

}  // namespace perfbench
}  // namespace cepr
