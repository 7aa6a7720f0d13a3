#include "src/obs/json_reader.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace optum::obs {
namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = what;
      *error_ += " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
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

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return Fail("nesting too deep");
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        if (!ConsumeLiteral("true")) {
          return Fail("bad literal");
        }
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) {
          return Fail("bad literal");
        }
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) {
          return Fail("bad literal");
        }
        out->kind = JsonValue::Kind::kNull;
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) {
        return true;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or '}'");
      }
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipSpace();
      if (Consume(']')) {
        return true;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or ']'");
      }
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // Our writer only emits \u00XX for control bytes; decode the
          // low byte and ignore anything above Latin-1.
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          const auto res = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (res.ec != std::errc() || res.ptr != text_.data() + pos_ + 4) {
            return Fail("bad \\u escape");
          }
          pos_ += 4;
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  // JSON numbers start with a digit or '-' then a digit; the check keeps
  // from_chars's nan/inf/Infinity spellings out.
  bool ParseNumber(JsonValue* out) {
    const size_t digit = pos_ + (text_[pos_] == '-' ? 1 : 0);
    if (digit >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[digit])) == 0) {
      return Fail("bad number");
    }
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0.0;
    const auto res = std::from_chars(begin, end, v);
    if (res.ec != std::errc() || res.ptr == begin) {
      return Fail("bad number");
    }
    pos_ = static_cast<size_t>(res.ptr - text_.data());
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text, error).Parse(out);
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

std::string ForEachJsonlRow(const std::string& path, const char* schema,
                            const std::function<void(const JsonValue&)>& row,
                            JsonlReadStats* stats) {
  std::string text;
  if (!ReadWholeFile(path, &text)) {
    return "cannot open " + path;
  }
  size_t start = 0;
  bool saw_header = false;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string_view line(text.data() + start, end - start);
    start = end + 1;
    while (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      continue;
    }
    JsonValue doc;
    std::string error;
    if (!ParseJson(line, &doc, &error)) {
      return path + ": " + error;
    }
    if (!saw_header) {
      const JsonValue* tag = doc.Find("schema");
      if (tag == nullptr || !tag->is_string() || tag->string_value != schema) {
        return path + " is not an " + schema + " stream";
      }
      saw_header = true;
      continue;
    }
    if (stats != nullptr) {
      ++stats->data_rows;
    }
    row(doc);
  }
  if (!saw_header) {
    return path + " is empty";
  }
  return std::string();
}

}  // namespace optum::obs
