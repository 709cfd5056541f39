#include "io/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sitm::io {

Result<bool> JsonValue::AsBool() const {
  if (!is_bool()) return Status::InvalidArgument("JSON value is not a bool");
  return std::get<bool>(value_);
}

Result<std::int64_t> JsonValue::AsInt() const {
  if (!is_int()) return Status::InvalidArgument("JSON value is not an int");
  return std::get<std::int64_t>(value_);
}

Result<double> JsonValue::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (is_double()) return std::get<double>(value_);
  return Status::InvalidArgument("JSON value is not a number");
}

Result<std::string> JsonValue::AsString() const {
  if (!is_string()) {
    return Status::InvalidArgument("JSON value is not a string");
  }
  return std::get<std::string>(value_);
}

Result<const JsonValue::Array*> JsonValue::AsArray() const {
  if (!is_array()) return Status::InvalidArgument("JSON value is not an array");
  return &std::get<Array>(value_);
}

Result<const JsonValue::Object*> JsonValue::AsObject() const {
  if (!is_object()) {
    return Status::InvalidArgument("JSON value is not an object");
  }
  return &std::get<Object>(value_);
}

Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  SITM_ASSIGN_OR_RETURN(const Object* obj, AsObject());
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return Status::NotFound("JSON object has no key '" + std::string(key) + "'");
}

std::string JsonEscape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent <= 0) return;
    *out += '\n';
    out->append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (is_null()) {
    *out += "null";
  } else if (is_bool()) {
    *out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_int()) {
    *out += std::to_string(std::get<std::int64_t>(value_));
  } else if (is_double()) {
    const double d = std::get<double>(value_);
    if (std::isfinite(d)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.12g", d);
      *out += buf;
    } else {
      *out += "null";  // JSON has no Inf/NaN
    }
  } else if (is_string()) {
    *out += JsonEscape(std::get<std::string>(value_));
  } else if (is_array()) {
    const Array& arr = std::get<Array>(value_);
    if (arr.empty()) {
      *out += "[]";
      return;
    }
    *out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) *out += indent > 0 ? "," : ",";
      newline(depth + 1);
      arr[i].DumpTo(out, indent, depth + 1);
    }
    newline(depth);
    *out += ']';
  } else {
    const Object& obj = std::get<Object>(value_);
    if (obj.empty()) {
      *out += "{}";
      return;
    }
    *out += '{';
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i > 0) *out += ",";
      newline(depth + 1);
      *out += JsonEscape(obj[i].first);
      *out += indent > 0 ? ": " : ":";
      obj[i].second.DumpTo(out, indent, depth + 1);
    }
    newline(depth);
    *out += '}';
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string JsonValue::Pretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Nesting cap: ParseValue recurses per '['/'{', so an adversarial
  /// "[[[[..." would otherwise overflow the stack (undefined behavior)
  /// long before any allocation limit triggers. 96 levels is far beyond
  /// any document this codebase produces or ingests; deeper input is a
  /// parse error, not UB.
  static constexpr int kMaxDepth = 96;

  Result<JsonValue> ParseDocument() {
    SITM_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Err(const std::string& message) const {
    return Status::Corruption("JSON parse error at offset " +
                              std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    if (depth >= kMaxDepth) return Err("nesting deeper than 96 levels");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      SITM_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (c == 't' || c == 'f') return ParseKeyword();
    if (c == 'n') return ParseKeyword();
    return ParseNumber();
  }

  Result<JsonValue> ParseKeyword() {
    auto match = [&](std::string_view kw) {
      return text_.substr(pos_, kw.size()) == kw;
    };
    if (match("true")) {
      pos_ += 4;
      return JsonValue(true);
    }
    if (match("false")) {
      pos_ += 5;
      return JsonValue(false);
    }
    if (match("null")) {
      pos_ += 4;
      return JsonValue(nullptr);
    }
    return Err("unknown keyword");
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Err("malformed number");
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue(static_cast<std::int64_t>(v));
      }
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size()) {
      return Err("malformed number '" + token + "'");
    }
    return JsonValue(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad hex digit in \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are
            // passed through as-is per code unit).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseArray(int depth) {
    if (!Consume('[')) return Err("expected '['");
    JsonValue::Array arr;
    SkipSpace();
    if (Consume(']')) return JsonValue(std::move(arr));
    while (true) {
      SITM_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      arr.push_back(std::move(v));
      SkipSpace();
      if (Consume(']')) return JsonValue(std::move(arr));
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    if (!Consume('{')) return Err("expected '{'");
    JsonValue::Object obj;
    SkipSpace();
    if (Consume('}')) return JsonValue(std::move(obj));
    while (true) {
      SkipSpace();
      SITM_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Err("expected ':'");
      SITM_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      obj.emplace_back(std::move(key), std::move(v));
      SkipSpace();
      if (Consume('}')) return JsonValue(std::move(obj));
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

}  // namespace sitm::io
