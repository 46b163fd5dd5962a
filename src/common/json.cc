#include "common/json.h"

#include <cmath>
#include <cstdlib>

namespace xupdate::json {

namespace {

// Hostile inputs arrive over the wire (stat payloads); the recursion
// bound keeps a deeply nested document from overflowing the stack.
constexpr int kMaxDepth = 96;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    SkipWs();
    Value value;
    XUPDATE_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing content");
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::ParseError("json: " + std::string(what) + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = Value::Kind::kString;
        return ParseString(&out->str);
      case 't':
        XUPDATE_RETURN_IF_ERROR(Expect("true"));
        out->kind = Value::Kind::kBool;
        out->boolean = true;
        return Status::OK();
      case 'f':
        XUPDATE_RETURN_IF_ERROR(Expect("false"));
        out->kind = Value::Kind::kBool;
        out->boolean = false;
        return Status::OK();
      case 'n':
        XUPDATE_RETURN_IF_ERROR(Expect("null"));
        out->kind = Value::Kind::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    out->kind = Value::Kind::kObject;
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      XUPDATE_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      SkipWs();
      Value member;
      XUPDATE_RETURN_IF_ERROR(ParseValue(&member, depth + 1));
      out->members.emplace_back(std::move(key), std::move(member));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    out->kind = Value::Kind::kArray;
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWs();
      Value item;
      XUPDATE_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->items.push_back(std::move(item));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A') + 10;
      } else {
        return Error("invalid \\u escape");
      }
      value = value * 16 + digit;
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Error("truncated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          XUPDATE_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            XUPDATE_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (Consume('-')) {
      // sign consumed
    }
    if (pos_ >= text_.size()) return Error("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    } else {
      return Error("invalid number");
    }
    if (Consume('.')) {
      size_t digits = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == digits) return Error("invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t digits = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == digits) return Error("invalid number");
    }
    // The slice is a valid JSON number, which is also a valid strtod
    // input; the bounded copy keeps strtod off un-terminated memory.
    std::string token(text_.substr(start, pos_ - start));
    out->kind = Value::Kind::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out->number)) return Error("number out of range");
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace xupdate::json
