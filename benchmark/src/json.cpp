#include "json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hwbench {

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_{text} {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string{what} + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      skip_ws();
      if (consume("}")) return v;
      do {
        skip_ws();
        std::string key = string();
        skip_ws();
        if (!consume(":")) fail("expected ':'");
        v.object.emplace_back(std::move(key), value());
        skip_ws();
      } while (consume(","));
      if (!consume("}")) fail("expected '}'");
    } else if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      skip_ws();
      if (consume("]")) return v;
      do {
        v.array.push_back(value());
        skip_ws();
      } while (consume(","));
      if (!consume("]")) fail("expected ']'");
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = string();
    } else if (consume("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (consume("false")) {
      v.kind = Json::Kind::kBool;
    } else if (consume("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      v.kind = Json::Kind::kNumber;
      // strtod needs a terminated buffer; copy the numeric run.
      std::size_t n = 0;
      while (pos_ + n < s_.size() &&
             std::string_view{"+-0123456789.eE"}.find(s_[pos_ + n]) !=
                 std::string_view::npos)
        ++n;
      if (n == 0) fail("unexpected character");
      const std::string num{s_.substr(pos_, n)};
      char* end = nullptr;
      v.number = std::strtod(num.c_str(), &end);
      if (end != num.c_str() + num.size()) fail("malformed number");
      pos_ += n;
    }
    return v;
  }

  std::string string() {
    if (!consume("\"")) fail("expected string");
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Only the ASCII range occurs in the files this tool reads.
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            c = static_cast<char>(
                std::strtol(std::string{s_.substr(pos_, 4)}.c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: c = e; break;
        }
      }
      out.push_back(c);
    }
    if (!consume("\"")) fail("unterminated string");
    return out;
  }

  std::string_view s_;
  std::size_t pos_{0};
};

}  // namespace

Json parse_json(std::string_view text) { return Parser{text}.document(); }

Json read_json_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_json(ss.str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, res.ptr};
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace hwbench
