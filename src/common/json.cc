#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace muds {
namespace json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    Value value;
    Status status = ParseValue(&value);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("JSON error at byte " + std::to_string(pos_) +
                              ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  Status ParseValue(Value* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Arrays and objects recurse; bound the depth so hostile input
        // cannot overflow the stack.
        if (depth_ == kMaxDepth) {
          return Error("nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        Status status = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return status;
      }
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseKeyword(c == 't' ? "true" : "false", out);
      case 'n':
        return ParseKeyword("null", out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseKeyword(std::string_view keyword, Value* out) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Error("invalid literal");
    }
    pos_ += keyword.size();
    if (keyword == "null") {
      out->type = Value::Type::kNull;
    } else {
      out->type = Value::Type::kBool;
      out->boolean = keyword == "true";
    }
    return Status::Ok();
  }

  // Skips a run of decimal digits; false if there is none.
  bool ConsumeDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ != start;
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !ConsumeDigits()) {
      return Error(pos_ == start ? "invalid value" : "invalid number");
    }
    if (Consume('.') && !ConsumeDigits()) return Error("invalid number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Error("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    // strtod turns an overflowing literal (1e400) into an infinity, which
    // JSON cannot spell, so Dump could not write it back.
    if (!std::isfinite(out->number)) return Error("number out of range");
    out->type = Value::Type::kNumber;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          *out += escape;
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // The validator only needs round-trippable ASCII; other code
          // points are preserved as UTF-8.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(Value* out) {
    Consume('[');
    out->type = Value::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      Value element;
      Status status = ParseValue(&element);
      if (!status.ok()) return status;
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(Value* out) {
    Consume('{');
    out->type = Value::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      Value value;
      status = ParseValue(&value);
      if (!status.ok()) return status;
      out->object.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Arrays and objects open at pos_.
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Parse(); }

namespace {

void DumpTo(const Value& value, std::string* out) {
  switch (value.type) {
    case Value::Type::kNull:
      *out += "null";
      break;
    case Value::Type::kBool:
      *out += value.boolean ? "true" : "false";
      break;
    case Value::Type::kNumber: {
      char buf[32];
      const double x = value.number;
      // Cast only inside int64_t's range [-2^63, 2^63): the cast of any
      // other double (and of NaN) is undefined.
      if (x >= -0x1p63 && x < 0x1p63 &&
          static_cast<double>(static_cast<int64_t>(x)) == x) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(static_cast<int64_t>(x)));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", x);
      }
      *out += buf;
      break;
    }
    case Value::Type::kString:
      *out += Quote(value.string);
      break;
    case Value::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Value& element : value.array) {
        if (!first) *out += ',';
        first = false;
        DumpTo(element, out);
      }
      *out += ']';
      break;
    }
    case Value::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) *out += ',';
        first = false;
        *out += Quote(key);
        *out += ':';
        DumpTo(member, out);
      }
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::string Dump(const Value& value) {
  std::string out;
  DumpTo(value, &out);
  return out;
}

std::string Quote(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
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

}  // namespace json
}  // namespace muds
