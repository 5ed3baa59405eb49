#include "atlarge/exp/store.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "atlarge/obs/json.hpp"

namespace atlarge::exp {
namespace {

// ------------------------------------------------------- mini JSON reader --
// Just enough of RFC 8259 to read back the lines this store writes (and
// reject anything mangled by a crash): objects, arrays, strings with
// every RFC escape (\uXXXX decodes to UTF-8), numbers in the RFC grammar,
// true/false/null. No allocation games — store lines are short.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // keeps order

  const JsonValue* find(const char* key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n'))
      ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool value(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Store lines nest two containers deep; a corrupt line of
        // brackets must be rejected, not recursed into until the stack
        // runs out.
        if (depth_ == kMaxDepth) return false;
        ++depth_;
        const bool ok = text_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // unescaped
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xdc00 && cp <= 0xdfff) return false;  // lone low half
          if (cp >= 0xd800 && cp <= 0xdbff) {  // needs its low half next
            unsigned low = 0;
            if (text_.compare(pos_, 2, "\\u") != 0) return false;
            pos_ += 2;
            if (!hex4(low) || low < 0xdc00 || low > 0xdfff) return false;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          }
          append_utf8(cp, out);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated — the truncated-tail case
  }

  /// Four hex digits of a \u escape.
  bool hex4(unsigned& code) {
    if (pos_ + 4 > text_.size()) return false;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        code |= static_cast<unsigned>(h - 'A' + 10);
      else return false;
    }
    return true;
  }

  static void append_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
      return;
    }
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr unsigned kLead[4] = {0, 0xc0, 0xe0, 0xf0};
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int k = tail - 1; k >= 0; --k)
      out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f));
  }

  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > from;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strtod
  /// alone would also take inf, nan, hex floats, a leading '+' or '.',
  /// leading zeros and a trailing '.'.
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // a leading zero stands alone
    } else if (!digits()) {
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) return false;
    }
    const char* begin = text_.c_str() + start;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    // strtod reading past the grammar ("01", "0x1p3") is a malformed
    // number. An overflow is rejected; an underflow (a subnormal or zero)
    // is the nearest double and kept.
    if (end != text_.c_str() + pos_ || (errno == ERANGE && std::isinf(v)))
      return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  static constexpr int kMaxDepth = 32;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool parse_trial_line(const std::string& line, TrialRecord& out) {
  JsonValue root;
  if (!JsonReader(line).parse(root)) return false;
  if (root.kind != JsonValue::Kind::kObject) return false;
  const JsonValue* key = root.find("key");
  const JsonValue* objective = root.find("objective");
  const JsonValue* metrics = root.find("metrics");
  if (!key || key->kind != JsonValue::Kind::kString || key->string.empty())
    return false;
  if (!objective || objective->kind != JsonValue::Kind::kNumber) return false;
  if (!metrics || metrics->kind != JsonValue::Kind::kObject) return false;
  out.key = key->string;
  out.objective = objective->number;
  out.metrics.clear();
  out.metrics.reserve(metrics->object.size());
  for (const auto& [name, v] : metrics->object) {
    if (v.kind != JsonValue::Kind::kNumber) return false;
    out.metrics.emplace_back(name, v.number);
  }
  // Optional serialized-digest field; absent on lines written before the
  // digest existed (those records just carry an empty distribution).
  out.digest.clear();
  if (const JsonValue* digest = root.find("digest")) {
    if (digest->kind != JsonValue::Kind::kString) return false;
    out.digest = digest->string;
  }
  return true;
}

ResultStore::ResultStore(const std::string& path) : path_(path) {
  if (path_.empty())
    throw std::runtime_error("ResultStore: empty path (use the default "
                             "constructor for a memory-only store)");
  open_and_replay();
}

ResultStore::~ResultStore() {
  if (file_) std::fclose(file_);
}

void ResultStore::open_and_replay() {
  std::vector<std::string> valid_lines;
  bool needs_repair = false;
  if (std::FILE* in = std::fopen(path_.c_str(), "rb")) {
    std::string content;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
      content.append(buf, n);
    const bool read_error = std::ferror(in) != 0;
    std::fclose(in);
    if (read_error)
      throw std::runtime_error("ResultStore: cannot read '" + path_ + "'");

    std::size_t start = 0;
    while (start < content.size()) {
      std::size_t end = content.find('\n', start);
      const bool had_newline = end != std::string::npos;
      if (!had_newline) end = content.size();
      const std::string line = content.substr(start, end - start);
      start = end + (had_newline ? 1 : 0);
      if (line.empty()) continue;
      // A last line without its newline is rewritten even when it parses:
      // the next append would otherwise run on into it and lose both.
      if (!had_newline) needs_repair = true;
      TrialRecord record;
      if (parse_trial_line(line, record)) {
        if (records_.emplace(record.key, std::move(record)).second)
          valid_lines.push_back(line);
        else
          needs_repair = true;  // duplicate key: keep first, drop the rest
        ++recovered_;
      } else {
        // Crash-truncated or corrupt line: drop it and repair the file so
        // resumed appends produce well-formed JSONL.
        ++discarded_;
        needs_repair = true;
      }
    }
  }
  if (needs_repair) {
    const std::string tmp = path_ + ".repair";
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (!out)
      throw std::runtime_error("ResultStore: cannot repair '" + path_ + "'");
    for (const std::string& line : valid_lines) {
      std::fwrite(line.data(), 1, line.size(), out);
      std::fputc('\n', out);
    }
    const bool ok = std::fflush(out) == 0 && std::ferror(out) == 0;
    std::fclose(out);
    if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0)
      throw std::runtime_error("ResultStore: cannot repair '" + path_ + "'");
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_)
    throw std::runtime_error("ResultStore: cannot append to '" + path_ + "'");
}

const TrialRecord* ResultStore::lookup(const std::string& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

std::string ResultStore::render_line(const TrialRecord& record,
                                     const TrialRowContext& context) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("key").value(record.key);
  w.key("domain").value(context.domain);
  w.key("repeat").value(static_cast<std::uint64_t>(context.repeat));
  w.key("seed").value(static_cast<std::uint64_t>(context.seed));
  w.key("params").begin_object();
  for (const auto& [name, label] : context.params) w.key(name).value(label);
  w.end_object();
  w.key("objective").value(record.objective);
  w.key("metrics").begin_object();
  for (const auto& [name, value] : record.metrics) w.key(name).value(value);
  w.end_object();
  if (!record.digest.empty()) w.key("digest").value(record.digest);
  w.end_object();
  return w.str();
}

void ResultStore::append(const TrialRecord& record,
                         const TrialRowContext& context) {
  if (record.key.empty())
    throw std::invalid_argument("ResultStore::append: empty key");
  // JSON has no NaN or infinity: JsonWriter would write null, the next
  // open would discard the line, and the trial would rerun on every resume.
  bool finite = std::isfinite(record.objective);
  for (const auto& [name, value] : record.metrics)
    finite = finite && std::isfinite(value);
  if (!finite)
    throw std::invalid_argument("ResultStore::append: non-finite value in '" +
                                record.key + "'");
  if (!records_.emplace(record.key, record).second) return;  // idempotent
  if (!file_) return;
  const std::string line = render_line(record, context);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // One flush per trial: a killed campaign loses at most the in-flight
  // line, which open_and_replay() repairs away on resume.
  std::fflush(file_);
}

}  // namespace atlarge::exp
