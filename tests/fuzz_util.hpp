#pragma once
// Seeded mutations of a valid text input, shared by the line-oriented
// parser fuzz tests (campaign specs, the JSONL result store). Each call
// derives one mutant from the base text; a fixed seed and a fixed
// iteration count make every run replay the same mutants.

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

}  // namespace atlarge::fuzz
