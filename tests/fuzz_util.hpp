#pragma once
// Seeded fuzz inputs, shared by the line-oriented parser fuzz tests
// (campaign specs, the JSONL result store): mutants of a valid text input
// and random byte strings. A fixed seed and a fixed iteration count make
// every run replay the same inputs.

#include <cctype>
#include <cstddef>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace atlarge::fuzz {

/// Mutant number `iter` of `base` (which must hold at least one token).
/// The kind cycles with `iter`; offsets and bytes come from `rng`:
///  0 — flip one to three bytes anywhere;
///  1 — truncate at a random offset;
///  2 — copy one line to a random line start (a repeated keyword);
///  3 — replace one whitespace-separated token with one of `hostile`.
inline std::string mutate_text(const std::string& base, int iter,
                               std::mt19937_64& rng,
                               const std::vector<std::string>& hostile) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::string text = base;
  switch (iter % 4) {
    case 0:
      for (std::size_t n = 1 + pick(3); n > 0; --n)
        text[pick(text.size())] ^= static_cast<char>(1 + pick(255));
      break;
    case 1:
      text.resize(pick(text.size()));
      break;
    case 2: {
      std::vector<std::size_t> starts = {0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i)
        if (text[i] == '\n') starts.push_back(i + 1);
      const std::size_t from = starts[pick(starts.size())];
      const std::size_t end = text.find('\n', from);
      const std::string line = text.substr(
          from, end == std::string::npos ? std::string::npos : end + 1 - from);
      text.insert(starts[pick(starts.size())], line);
      break;
    }
    default: {
      std::vector<std::pair<std::size_t, std::size_t>> tokens;  // at, size
      for (std::size_t i = 0; i < text.size();) {
        if (std::isspace(static_cast<unsigned char>(text[i]))) {
          ++i;
          continue;
        }
        const std::size_t at = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i])))
          ++i;
        tokens.emplace_back(at, i - at);
      }
      const auto [at, size] = tokens[pick(tokens.size())];
      text.replace(at, size, hostile[pick(hostile.size())]);
      break;
    }
  }
  return text;
}

/// A random non-empty byte string of up to `max_pieces` pieces. Each piece
/// is an ASCII byte (control characters, quotes and backslashes
/// included), one UTF-8 encoded code point from any plane (U+FFFD and
/// the code points around the surrogate range included), or one raw byte
/// from 0x80-0xff, so some strings are valid UTF-8 and some are not.
inline std::string random_bytes(std::mt19937_64& rng, std::size_t max_pieces) {
  static const std::vector<unsigned> kEdges = {
      0x7f, 0x80, 0x7ff, 0x800, 0xd7ff, 0xe000, 0xfffd, 0xffff, 0x10000,
      0x10ffff};
  std::string out;
  for (std::size_t n = 1 + rng() % max_pieces; n > 0; --n) {
    switch (rng() % 8) {
      case 0:
        out += static_cast<char>(0x80 + rng() % 0x80);
        break;
      case 1:
      case 2:
        out += static_cast<char>(rng() % 0x80);
        break;
      default: {
        unsigned cp = rng() % 2 ? kEdges[rng() % kEdges.size()]
                                : static_cast<unsigned>(rng() % 0x110000);
        if (cp >= 0xd800 && cp <= 0xdfff) cp = 0xfffd;  // no surrogates
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xc0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
          out += static_cast<char>(0xe0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
          out += static_cast<char>(0xf0 | (cp >> 18));
          out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace atlarge::fuzz
