#include "common/telemetry/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ht {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Int(int64_t value) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::Uint(uint64_t value) {
  JsonValue v;
  v.type_ = Type::kUint;
  v.uint_ = value;
  return v;
}

JsonValue JsonValue::Double(double value) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.double_ = std::isfinite(value) ? value : 0.0;
  return v;
}

JsonValue JsonValue::Str(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

uint64_t JsonValue::as_uint() const {
  switch (type_) {
    case Type::kUint:
      return uint_;
    case Type::kInt:
      return int_ < 0 ? 0 : static_cast<uint64_t>(int_);
    case Type::kDouble:
      return double_ < 0 ? 0 : static_cast<uint64_t>(double_);
    default:
      return 0;
  }
}

int64_t JsonValue::as_int() const {
  switch (type_) {
    case Type::kInt:
      return int_;
    case Type::kUint:
      return static_cast<int64_t>(uint_);
    case Type::kDouble:
      return static_cast<int64_t>(double_);
    default:
      return 0;
  }
}

double JsonValue::as_double() const {
  switch (type_) {
    case Type::kDouble:
      return double_;
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    default:
      return 0.0;
  }
}

JsonValue& JsonValue::Push(JsonValue value) {
  items_.push_back(std::move(value));
  return *this;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

JsonValue* JsonValue::Find(std::string_view key) {
  for (auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

void JsonEscape(std::string_view text, std::ostream& out) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  return std::string(buf, ptr);
}

void JsonValue::Dump(std::ostream& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                                 : std::string();
  const std::string close_pad =
      pretty ? std::string(static_cast<size_t>(indent * depth), ' ') : std::string();
  switch (type_) {
    case Type::kNull:
      out << "null";
      return;
    case Type::kBool:
      out << (bool_ ? "true" : "false");
      return;
    case Type::kInt:
      out << int_;
      return;
    case Type::kUint:
      out << uint_;
      return;
    case Type::kDouble:
      out << JsonDouble(double_);
      return;
    case Type::kString:
      JsonEscape(string_, out);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        out << "[]";
        return;
      }
      out << '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) {
          out << ',';
        }
        if (pretty) {
          out << '\n' << pad;
        }
        items_[i].Dump(out, indent, depth + 1);
      }
      if (pretty) {
        out << '\n' << close_pad;
      }
      out << ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out << "{}";
        return;
      }
      out << '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) {
          out << ',';
        }
        if (pretty) {
          out << '\n' << pad;
        }
        JsonEscape(members_[i].first, out);
        out << (pretty ? ": " : ":");
        members_[i].second.Dump(out, indent, depth + 1);
      }
      if (pretty) {
        out << '\n' << close_pad;
      }
      out << '}';
      return;
    }
  }
}

std::string JsonValue::ToString(int indent) const {
  std::ostringstream out;
  Dump(out, indent);
  return out.str();
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  using Type = JsonValue::Type;
  // kInt and kUint are interchangeable representations of the same value.
  if (a.type_ != b.type_) {
    if (a.is_number() && b.is_number() && a.type_ != Type::kDouble &&
        b.type_ != Type::kDouble) {
      if (a.type_ == Type::kInt && a.int_ < 0) {
        return false;
      }
      if (b.type_ == Type::kInt && b.int_ < 0) {
        return false;
      }
      return a.as_uint() == b.as_uint();
    }
    return false;
  }
  switch (a.type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return a.bool_ == b.bool_;
    case Type::kInt:
      return a.int_ == b.int_;
    case Type::kUint:
      return a.uint_ == b.uint_;
    case Type::kDouble:
      return a.double_ == b.double_;
    case Type::kString:
      return a.string_ == b.string_;
    case Type::kArray:
      return a.items_ == b.items_;
    case Type::kObject:
      return a.members_ == b.members_;
  }
  return false;
}

namespace {

// Recursive-descent parser over a string_view with a cursor.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> Run() {
    SkipWhitespace();
    auto value = ParseValue(0);
    if (!value.has_value()) {
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::optional<JsonValue> Fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
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

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(depth);
    }
    if (c == '[') {
      return ParseArray(depth);
    }
    if (c == '"') {
      auto s = ParseString();
      if (!s.has_value()) {
        return std::nullopt;
      }
      return JsonValue::Str(std::move(*s));
    }
    if (ConsumeWord("true")) {
      return JsonValue::Bool(true);
    }
    if (ConsumeWord("false")) {
      return JsonValue::Bool(false);
    }
    if (ConsumeWord("null")) {
      return JsonValue::Null();
    }
    return ParseNumber();
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      Fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          const auto [ptr, ec] =
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || ptr != text_.data() + pos_ + 4) {
            Fail("bad \\u escape");
            return std::nullopt;
          }
          pos_ += 4;
          // Telemetry strings are ASCII; decode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("bad escape");
          return std::nullopt;
      }
    }
    Fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      return Fail("expected value");
    }
    if (integral) {
      if (token[0] == '-') {
        int64_t value = 0;
        const auto [ptr, ec] = std::from_chars(token.begin(), token.end(), value);
        if (ec == std::errc() && ptr == token.end()) {
          return JsonValue::Int(value);
        }
      } else {
        uint64_t value = 0;
        const auto [ptr, ec] = std::from_chars(token.begin(), token.end(), value);
        if (ec == std::errc() && ptr == token.end()) {
          return JsonValue::Uint(value);
        }
      }
      // Fall through to double for out-of-range integers.
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(token.begin(), token.end(), value);
    if (ec != std::errc() || ptr != token.end()) {
      return Fail("bad number");
    }
    return JsonValue::Double(value);
  }

  std::optional<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) {
      return array;
    }
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.has_value()) {
        return std::nullopt;
      }
      array.Push(std::move(*value));
      SkipWhitespace();
      if (Consume(']')) {
        return array;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or ']'");
      }
    }
  }

  std::optional<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) {
      return object;
    }
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.has_value()) {
        return std::nullopt;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      auto value = ParseValue(depth + 1);
      if (!value.has_value()) {
        return std::nullopt;
      }
      object.Set(std::move(*key), std::move(*value));
      SkipWhitespace();
      if (Consume('}')) {
        return object;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or '}'");
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> JsonValue::Parse(std::string_view text, std::string* error) {
  return JsonParser(text, error).Run();
}

bool WriteTextFile(const std::string& path, const std::function<void(std::ostream&)>& write,
                   std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (out) {
    write(out);
    out.flush();
  }
  if (!out && error != nullptr) {
    *error = (out.is_open() ? "write failed for " : "cannot open ") + path;
  }
  return static_cast<bool>(out);
}

bool WriteTelemetryDocument(const std::string& path, const JsonValue& doc, std::string* error) {
  return WriteTextFile(
      path,
      [&](std::ostream& out) {
        doc.Dump(out);
        out << "\n";
      },
      error);
}

std::optional<JsonValue> ReadTelemetryDocument(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  std::optional<JsonValue> doc = JsonValue::Parse(text.str(), &parse_error);
  if (!doc.has_value() && error != nullptr) {
    *error = path + ": " + parse_error;
  }
  return doc;
}

}  // namespace ht
