// Tests for atlarge::exp — the campaign engine. The load-bearing
// properties pinned here, in rough dependency order: spec parsing,
// space binding, deterministic trial enumeration and memo keys, the
// crash-safe JSONL store, the memoizing parallel runner (serial ==
// parallel, byte for byte), aggregation math, checkpoint/resume, and the
// four domain adapters' determinism contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/engine.hpp"
#include "atlarge/obs/json.hpp"
#include "atlarge/obs/observability.hpp"
#include "fuzz_util.hpp"
#include "golden_util.hpp"

namespace {

using namespace atlarge;

// A cheap, exactly-predictable adapter: objective is a linear function of
// the parameter values, so aggregation math can be hand-checked and a
// "simulation" costs nanoseconds.
class LinearAdapter final : public exp::SimulatorAdapter {
 public:
  std::string domain() const override { return "linear"; }
  std::string objective() const override { return "cost"; }

  std::vector<exp::ParamSpec> params() const override {
    return {
        {"a", {1.0, 2.0, 3.0}, {}},
        {"b", {10.0, 20.0}, {}},
        {"mode", {0.0, 1.0}, {"off", "on"}},
    };
  }

  exp::TrialResult run(const std::vector<double>& v, std::uint64_t seed,
                       double scale) const override {
    (void)seed;
    exp::TrialResult r;
    r.objective = v[0] + 0.1 * v[1] + 5.0 * v[2];
    r.metrics = {{"cost", r.objective}, {"scale_seen", scale}};
    return r;
  }
};

std::string temp_path(const std::string& leaf) {
  return atlarge::golden::temp_path("exp_test", leaf);
}

std::string slurp(const std::string& path) {
  return atlarge::golden::slurp(path);
}

exp::CampaignSpec linear_spec() {
  exp::CampaignSpec spec;
  spec.name = "linear";
  spec.domain = "linear";
  spec.mode = exp::CampaignMode::kGrid;
  spec.repeats = 2;
  spec.seed = 7;
  return spec;
}

// ------------------------------------------------------------ spec parse --

TEST(CampaignSpec, ParsesFullSpec) {
  const auto spec = exp::parse_campaign_spec(
      "# comment\n"
      "campaign my-sweep\n"
      "domain serverless\n"
      "mode random   # trailing comment\n"
      "repeats 3\n"
      "seed 42\n"
      "scale 0.5\n"
      "trials 16\n"
      "threads 4\n"
      "top 7\n"
      "dim keep_alive 0 300\n"
      "dim prewarmed 2\n");
  EXPECT_EQ(spec.name, "my-sweep");
  EXPECT_EQ(spec.domain, "serverless");
  EXPECT_EQ(spec.mode, exp::CampaignMode::kRandom);
  EXPECT_EQ(spec.repeats, 3u);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.5);
  EXPECT_EQ(spec.trials, 16u);
  EXPECT_EQ(spec.threads, 4u);
  EXPECT_EQ(spec.top_k, 7u);
  ASSERT_EQ(spec.dims.size(), 2u);
  EXPECT_EQ(spec.dims.at("keep_alive"),
            (std::vector<std::string>{"0", "300"}));
  EXPECT_EQ(spec.dims.at("prewarmed"), (std::vector<std::string>{"2"}));
}

TEST(CampaignSpec, DefaultsNameAndMode) {
  const auto spec = exp::parse_campaign_spec("domain p2p\n");
  EXPECT_EQ(spec.name, "p2p-campaign");
  EXPECT_EQ(spec.mode, exp::CampaignMode::kGrid);
  EXPECT_EQ(spec.repeats, 1u);
}

TEST(CampaignSpec, ErrorsCarryLineNumbers) {
  try {
    exp::parse_campaign_spec("domain p2p\nmode sideways\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(exp::parse_campaign_spec("mode grid\n"),
               std::invalid_argument);  // missing domain
  EXPECT_THROW(exp::parse_campaign_spec("domain p2p\nwibble 3\n"),
               std::invalid_argument);  // unknown keyword
  // Signed or out-of-range counts are errors on their own line, not
  // values wrapped modulo 2^64 (threads -1 used to reach the runner as
  // 2^64 - 1 threads and die in vector::reserve). Thread counts above
  // ThreadPool::kMaxThreads (256) are out of range too.
  for (const char* bad :
       {"threads -1", "repeats -1", "trials -3", "top -2", "seed -5",
        "seed 18446744073709551616", "threads 99999999999999999999",
        "threads 257"}) {
    try {
      exp::parse_campaign_spec(std::string("domain p2p\n") + bad + "\n");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignSpec, MutationFuzzParsesOrThrowsInvalidArgument) {
  // Seeded mutation fuzz: 5,000 byte flips, truncations, repeated lines
  // and hostile-token swaps of a spec that uses every keyword. Every parse
  // must return a spec or throw std::invalid_argument; any other
  // exception, crash or sanitizer report fails the test, and so does a
  // parsed spec outside the bounds the parser promises.
  const std::string base =
      "campaign fuzz  # every keyword once\n"
      "domain serverless\n"
      "mode grid\n"
      "repeats 3\n"
      "seed 7\n"
      "scale 0.5\n"
      "trials 12\n"
      "threads 4\n"
      "top 6\n"
      "dim keep_alive 60 600\n"
      "dim faults.rate 0 8 40\n";
  const std::vector<std::string> hostile = {
      "-1", "-0", "+3", "0", "18446744073709551615",
      "18446744073709551616", "99999999999999999999", "nan", "inf",
      "1e999", "-0.5", "0x10", "1.5", "#", "domain", "dim", "mode", ""};
  std::mt19937_64 rng(20261017);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 5'000; ++iter) {
    const std::string text = fuzz::mutate_text(base, iter, rng, hostile);
    try {
      const exp::CampaignSpec spec = exp::parse_campaign_spec(text);
      EXPECT_FALSE(spec.domain.empty()) << text;
      EXPECT_GE(spec.repeats, 1u) << text;
      EXPECT_GE(spec.trials, 1u) << text;
      EXPECT_GE(spec.threads, 1u) << text;
      EXPECT_GE(spec.top_k, 1u) << text;
      EXPECT_TRUE(spec.scale > 0.0 && spec.scale <= 1.0) << text;
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 500);
  EXPECT_GT(rejected, 500);
}

// ----------------------------------------------------------- bound space --

TEST(BoundSpace, BindsAllParamsInAdapterOrder) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  // Spec lists dims out of adapter order; binding must follow the adapter.
  spec.dims = {{"mode", {"on"}}, {"a", {"3", "1"}}};
  const exp::BoundSpace space(adapter, spec);
  ASSERT_EQ(space.dimensions(), 3u);
  EXPECT_EQ(space.dims()[0].name, "a");
  EXPECT_EQ(space.dims()[1].name, "b");  // unrestricted: full options
  EXPECT_EQ(space.dims()[2].name, "mode");
  EXPECT_EQ(space.dims()[0].option_indices,
            (std::vector<std::uint32_t>{2, 0}));  // spec token order kept
  EXPECT_EQ(space.dims()[1].option_indices,
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(space.grid_size(), 2u * 2u * 1u);

  const auto values = space.values({1, 0, 0});
  EXPECT_DOUBLE_EQ(values[0], 1.0);   // bound option 1 of dim a == value 1
  EXPECT_DOUBLE_EQ(values[1], 10.0);
  EXPECT_DOUBLE_EQ(values[2], 1.0);   // "on"
  const auto labels = space.labels({1, 0, 0});
  EXPECT_EQ(labels[2], "on");
}

TEST(BoundSpace, RejectsUnknownDimsAndTokens) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.dims = {{"nope", {"1"}}};
  EXPECT_THROW(exp::BoundSpace(adapter, spec), std::invalid_argument);
  spec.dims = {{"a", {"7"}}};
  try {
    exp::BoundSpace space(adapter, spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message lists the valid options for the dimension.
    EXPECT_NE(std::string(e.what()).find("a"), std::string::npos);
  }
  spec.dims = {{"mode", {"sideways"}}};
  EXPECT_THROW(exp::BoundSpace(adapter, spec), std::invalid_argument);
}

TEST(BoundSpace, GridEnumerationLastDimensionFastest) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 1;
  const exp::BoundSpace space(adapter, spec);  // 3 x 2 x 2 = 12 points
  EXPECT_EQ(space.grid_size(), 12u);
  EXPECT_EQ(space.grid_point(0), (design::DesignPoint{0, 0, 0}));
  EXPECT_EQ(space.grid_point(1), (design::DesignPoint{0, 0, 1}));
  EXPECT_EQ(space.grid_point(2), (design::DesignPoint{0, 1, 0}));
  EXPECT_EQ(space.grid_point(11), (design::DesignPoint{2, 1, 1}));
}

TEST(BoundSpace, EnumerationPutsRepeatsInnermost) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 2;
  const exp::BoundSpace space(adapter, spec);
  const auto tasks = exp::enumerate_trials(spec, space);
  ASSERT_EQ(tasks.size(), 24u);
  EXPECT_EQ(tasks[0].point, tasks[1].point);
  EXPECT_EQ(tasks[0].repeat, 0u);
  EXPECT_EQ(tasks[1].repeat, 1u);
  EXPECT_NE(tasks[1].point, tasks[2].point);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(tasks[i].index, i);
}

// -------------------------------------------------------------- memo key --

TEST(MemoKey, StableAcrossNameModeAndThreads) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  const exp::BoundSpace space(adapter, spec);
  const auto base = exp::make_trial(spec, space, {1, 1, 0}, 1, 0);

  auto renamed = spec;
  renamed.name = "rebranded";
  renamed.mode = exp::CampaignMode::kRandom;
  renamed.threads = 8;
  renamed.top_k = 1;
  const auto same = exp::make_trial(renamed, space, {1, 1, 0}, 1, 5);
  EXPECT_EQ(base.key, same.key);
  EXPECT_EQ(base.seed, same.seed);
}

TEST(MemoKey, SensitiveToContent) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  const exp::BoundSpace space(adapter, spec);
  const auto base = exp::make_trial(spec, space, {1, 1, 0}, 0, 0);
  EXPECT_NE(exp::make_trial(spec, space, {1, 1, 1}, 0, 0).key, base.key);
  EXPECT_NE(exp::make_trial(spec, space, {1, 1, 0}, 1, 0).key, base.key);
  auto reseeded = spec;
  reseeded.seed = 8;
  EXPECT_NE(exp::make_trial(reseeded, space, {1, 1, 0}, 0, 0).key, base.key);
  auto rescaled = spec;
  rescaled.scale = 0.5;
  EXPECT_NE(exp::make_trial(rescaled, space, {1, 1, 0}, 0, 0).key, base.key);
}

TEST(MemoKey, KeyIsSixteenLowercaseHexChars) {
  LinearAdapter adapter;
  const auto spec = linear_spec();
  const exp::BoundSpace space(adapter, spec);
  const auto task = exp::make_trial(spec, space, {0, 0, 0}, 0, 0);
  ASSERT_EQ(task.key.size(), 16u);
  for (const char c : task.key)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

// ----------------------------------------------------------------- store --

TEST(ResultStore, MemoryOnlyLookupAndIdempotentAppend) {
  exp::ResultStore store;
  EXPECT_EQ(store.lookup("aaaa"), nullptr);
  exp::TrialRecord record;
  record.key = "aaaa";
  record.objective = 1.5;
  record.metrics = {{"m", 2.0}};
  store.append(record, {});
  record.objective = 99.0;  // second append with same key must not win
  store.append(record, {});
  ASSERT_NE(store.lookup("aaaa"), nullptr);
  EXPECT_DOUBLE_EQ(store.lookup("aaaa")->objective, 1.5);
  EXPECT_EQ(store.size(), 1u);
}

// %.12g round-trip, the runner's canonicalization: a value that survived
// it once is a fixed point of JSON rendering.
double canonical(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return std::strtod(buffer, nullptr);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// True when `s` is well-formed UTF-8: no stray continuation bytes and no
// truncated, overlong or surrogate sequences, nothing past U+10FFFF.
bool valid_utf8(const std::string& s) {
  for (std::size_t i = 0; i < s.size();) {
    const auto b = static_cast<unsigned char>(s[i]);
    const std::size_t len = b < 0x80             ? 1
                            : (b & 0xe0) == 0xc0 ? 2
                            : (b & 0xf0) == 0xe0 ? 3
                            : (b & 0xf8) == 0xf0 ? 4
                                                 : 0;
    if (len == 0 || i + len > s.size()) return false;
    unsigned cp = len == 1 ? b : b & (0x7fu >> len);
    for (std::size_t k = 1; k < len; ++k) {
      const auto c = static_cast<unsigned char>(s[i + k]);
      if ((c & 0xc0) != 0x80) return false;
      cp = (cp << 6) | (c & 0x3fu);
    }
    static constexpr unsigned kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < kMin[len] || (cp >= 0xd800 && cp <= 0xdfff) || cp > 0x10ffff)
      return false;
    i += len;
  }
  return true;
}

TEST(ResultStore, JsonlRoundTripIsBitwiseForCanonicalValues) {
  const auto path = temp_path("roundtrip.jsonl");
  std::remove(path.c_str());
  exp::TrialRecord record;
  record.key = "0123456789abcdef";
  record.objective = canonical(1.0 / 3.0);
  record.metrics = {{"pi_ish", canonical(3.14159265358979)},
                    {"tiny", canonical(1e-300)},
                    {"neg", canonical(-42.5)}};
  {
    exp::ResultStore store(path);
    exp::TrialRowContext ctx;
    ctx.domain = "linear";
    ctx.repeat = 1;
    ctx.seed = 99;
    ctx.params = {{"a", "1"}, {"mode", "on"}};
    store.append(record, ctx);
  }
  exp::ResultStore reopened(path);
  EXPECT_EQ(reopened.recovered(), 1u);
  EXPECT_EQ(reopened.discarded_lines(), 0u);
  const auto* back = reopened.lookup(record.key);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->objective, record.objective);  // bitwise
  ASSERT_EQ(back->metrics.size(), record.metrics.size());
  for (std::size_t i = 0; i < record.metrics.size(); ++i) {
    EXPECT_EQ(back->metrics[i].first, record.metrics[i].first);
    EXPECT_EQ(back->metrics[i].second, record.metrics[i].second);
  }
  std::remove(path.c_str());
}

TEST(ResultStore, RepairsTruncatedTail) {
  const auto path = temp_path("repair.jsonl");
  std::remove(path.c_str());
  {
    exp::ResultStore store(path);
    for (int i = 0; i < 3; ++i) {
      exp::TrialRecord record;
      record.key = "key_" + std::to_string(i);
      record.objective = i;
      record.metrics = {{"m", static_cast<double>(i)}};
      store.append(record, {});
    }
  }
  // Simulate a crash mid-append: chop the tail and add garbage.
  auto content = slurp(path);
  content.resize(content.size() - 10);
  content += "\n{\"not\":\"a trial";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  exp::ResultStore repaired(path);
  EXPECT_EQ(repaired.recovered(), 2u);
  EXPECT_GE(repaired.discarded_lines(), 1u);
  EXPECT_NE(repaired.lookup("key_0"), nullptr);
  EXPECT_NE(repaired.lookup("key_1"), nullptr);
  EXPECT_EQ(repaired.lookup("key_2"), nullptr);
  // The file itself was rewritten: every remaining line parses.
  std::ifstream in(path);
  std::string line;
  std::size_t valid = 0;
  while (std::getline(in, line)) {
    exp::TrialRecord record;
    EXPECT_TRUE(exp::parse_trial_line(line, record)) << line;
    ++valid;
  }
  EXPECT_EQ(valid, 2u);
  std::remove(path.c_str());
}

TEST(ResultStore, ParseLineRejectsMalformedInput) {
  exp::TrialRecord record;
  EXPECT_FALSE(exp::parse_trial_line("", record));
  EXPECT_FALSE(exp::parse_trial_line("not json", record));
  EXPECT_FALSE(exp::parse_trial_line("{\"key\":\"k\"}", record));  // no obj
  EXPECT_FALSE(exp::parse_trial_line(
      "{\"key\":\"k\",\"objective\":1,\"metrics\":{\"m\":1}} trailing",
      record));
  EXPECT_FALSE(exp::parse_trial_line(
      "{\"key\":1,\"objective\":1,\"metrics\":{}}", record));  // key type
  EXPECT_TRUE(exp::parse_trial_line(
      "{\"key\":\"k\",\"objective\":1.5,\"metrics\":{\"m\":2}}", record));
  EXPECT_EQ(record.key, "k");
  EXPECT_DOUBLE_EQ(record.objective, 1.5);
  ASSERT_EQ(record.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(record.metrics[0].second, 2.0);
}

TEST(ResultStore, ParseLineAcceptsOnlyJsonNumbers) {
  // strtod reads each of these; RFC 8259 reads none of them.
  exp::TrialRecord record;
  for (const char* number :
       {"inf", "infinity", "-nan", "0x1p3", "+2", "01", ".5", "1."}) {
    const std::string n = number;
    EXPECT_FALSE(exp::parse_trial_line(
        "{\"key\":\"k\",\"objective\":" + n + ",\"metrics\":{}}", record))
        << n;
    EXPECT_FALSE(exp::parse_trial_line(
        "{\"key\":\"k\",\"objective\":1,\"metrics\":{\"m\":" + n + "}}",
        record))
        << n;
  }
  // Every JSON spelling reads as strtod would read it: an underflow to a
  // subnormal is kept, an overflow to infinity is not.
  for (const char* number :
       {"0", "-0", "12", "-1.5", "2E+3", "2.5e-3", "1e-310", "1e-400"}) {
    ASSERT_TRUE(exp::parse_trial_line(
        std::string("{\"key\":\"k\",\"objective\":") + number +
            ",\"metrics\":{}}",
        record))
        << number;
    EXPECT_EQ(bits_of(record.objective),
              bits_of(std::strtod(number, nullptr)))
        << number;
  }
  EXPECT_FALSE(exp::parse_trial_line(
      "{\"key\":\"k\",\"objective\":1e999,\"metrics\":{}}", record));
}

TEST(ResultStore, UnicodeEscapesDecodeToUtf8) {
  const auto key_of = [](const std::string& quoted) {
    exp::TrialRecord record;
    return exp::parse_trial_line(
               "{\"key\":\"" + quoted + "\",\"objective\":1,\"metrics\":{}}",
               record)
               ? record.key
               : std::string("<rejected>");
  };
  EXPECT_EQ(key_of("\\ufffd"), "\xef\xbf\xbd");
  EXPECT_EQ(key_of("a\\u00e9"), "a\xc3\xa9");
  EXPECT_EQ(key_of("\\u0001z"), "\x01z");
  EXPECT_EQ(key_of("\\ud83d\\ude00"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(key_of("\\uD83D\\uDE00"), "\xf0\x9f\x98\x80");
  // A lone or reversed surrogate half and an unescaped control character
  // are not valid JSON text.
  for (const char* bad : {"\\ud800", "\\ud800z", "\\ud800\\u0041", "\\udc00",
                          "\\ude00\\ud83d", "tab\there"})
    EXPECT_EQ(key_of(bad), "<rejected>") << bad;
  // JsonWriter escapes a U+FFFD in a key; the store reads back the same
  // three bytes.
  obs::JsonWriter w;
  w.begin_object().key("key").value("\xef\xbf\xbd").key("objective");
  w.value(1.0).key("metrics").begin_object().end_object().end_object();
  exp::TrialRecord record;
  ASSERT_TRUE(exp::parse_trial_line(w.str(), record)) << w.str();
  EXPECT_EQ(record.key, "\xef\xbf\xbd");
}

TEST(ResultStore, AppendRejectsNonFiniteValues) {
  // JSON has no NaN or infinity: a record holding one would be written
  // as null, discarded at the next open and rerun on every resume.
  const auto path = temp_path("nonfinite.jsonl");
  std::remove(path.c_str());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    exp::ResultStore store(path);
    exp::TrialRecord record;
    record.key = "bad_objective";
    record.objective = nan;
    EXPECT_THROW(store.append(record, {}), std::invalid_argument);
    record.key = "bad_metric";
    record.objective = 1.0;
    record.metrics = {{"ok", 2.0}, {"m", -inf}};
    EXPECT_THROW(store.append(record, {}), std::invalid_argument);
    EXPECT_EQ(store.size(), 0u);
    record.key = "good";
    record.metrics = {{"ok", 2.0}};
    store.append(record, {});
  }
  exp::ResultStore reopened(path);
  EXPECT_EQ(reopened.recovered(), 1u);
  EXPECT_EQ(reopened.discarded_lines(), 0u);
  EXPECT_NE(reopened.lookup("good"), nullptr);
  EXPECT_EQ(reopened.lookup("bad_metric"), nullptr);
  exp::ResultStore memory;
  exp::TrialRecord record;
  record.key = "memory";
  record.objective = inf;
  EXPECT_THROW(memory.append(record, {}), std::invalid_argument);
  EXPECT_EQ(memory.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultStore, JsonWriterFuzzLinesReadBackExactly) {
  // 2,000 seeded random byte strings go through obs::JsonWriter as a key
  // and a metric name, with random finite doubles as the values. Every
  // line must parse; a valid UTF-8 string must read back byte for byte
  // (an invalid one reads back with U+FFFD in place of each bad byte),
  // and each value must read back bit for bit as its %.12g rendering.
  const std::vector<double> edges = {
      0.0, -0.0, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 1.0 / 3.0};
  std::mt19937_64 rng(20261018);
  const auto random_finite = [&rng] {
    double v = 0.0;
    do {
      const std::uint64_t b = rng();
      std::memcpy(&v, &b, sizeof v);
    } while (!std::isfinite(v));
    return v;
  };
  int checked = 0;
  for (int iter = 0; iter < 2'000; ++iter) {
    const std::string key = fuzz::random_bytes(rng, 12);
    const std::string name = fuzz::random_bytes(rng, 12);
    const double objective =
        iter < static_cast<int>(edges.size()) ? edges[iter] : random_finite();
    const double metric = random_finite();
    obs::JsonWriter w;
    w.begin_object().key("key").value(key).key("objective").value(objective);
    w.key("metrics").begin_object().key(name).value(metric).end_object();
    w.end_object();
    exp::TrialRecord record;
    ASSERT_TRUE(exp::parse_trial_line(w.str(), record)) << w.str();
    EXPECT_EQ(bits_of(record.objective), bits_of(canonical(objective)))
        << w.str();
    ASSERT_EQ(record.metrics.size(), 1u) << w.str();
    EXPECT_EQ(bits_of(record.metrics[0].second), bits_of(canonical(metric)))
        << w.str();
    if (valid_utf8(key)) {
      EXPECT_EQ(record.key, key) << w.str();
      ++checked;
    }
    if (valid_utf8(name)) {
      EXPECT_EQ(record.metrics[0].first, name) << w.str();
    }
    EXPECT_TRUE(valid_utf8(record.key)) << w.str();
  }
  EXPECT_GT(checked, 500);
}

// ---------------------------------------------------------------- runner --

TEST(TrialRunner, SerialAndParallelProduceIdenticalAggregates) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 2;
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exp::ResultStore store;
    exp::RunnerConfig config;
    config.threads = threads;
    const auto outcome = exp::run_campaign(spec, adapter, store, config);
    EXPECT_TRUE(outcome.complete);
    const auto json = exp::aggregate_json(outcome.aggregate);
    if (reference.empty())
      reference = json;
    else
      EXPECT_EQ(json, reference) << "threads=" << threads;
  }
}

TEST(TrialRunner, SecondRunIsFullyMemoized) {
  LinearAdapter adapter;
  const auto spec = linear_spec();
  exp::ResultStore store;
  obs::Observability plane;
  exp::RunnerConfig config;
  config.obs = &plane;
  const auto first = exp::run_campaign(spec, adapter, store, config);
  EXPECT_EQ(first.stats.executed, first.tasks.size());
  const auto second = exp::run_campaign(spec, adapter, store, config);
  EXPECT_EQ(second.stats.executed, 0u);
  EXPECT_EQ(second.stats.memoized, second.tasks.size());
  // The obs counters tell the same story (this is what CI asserts on).
  EXPECT_EQ(plane.metrics.counters().at("exp.trials_executed").value(),
            first.tasks.size());
  EXPECT_EQ(plane.metrics.counters().at("exp.trials_memoized").value(),
            second.tasks.size());
  EXPECT_EQ(exp::aggregate_json(first.aggregate),
            exp::aggregate_json(second.aggregate));
}

TEST(TrialRunner, CapInterruptsAndResumeCompletes) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 2;  // 12 points x 2 = 24 trials
  // Uninterrupted reference run.
  exp::ResultStore full_store;
  const auto reference =
      exp::run_campaign(spec, adapter, full_store, {});
  ASSERT_TRUE(reference.complete);

  exp::ResultStore store;
  exp::RunnerConfig capped;
  capped.max_executed = 5;
  const auto interrupted = exp::run_campaign(spec, adapter, store, capped);
  EXPECT_FALSE(interrupted.complete);
  EXPECT_FALSE(interrupted.aggregate.complete);
  EXPECT_EQ(interrupted.stats.executed, 5u);
  EXPECT_EQ(interrupted.stats.skipped, 24u - 5u);

  const auto resumed = exp::run_campaign(spec, adapter, store, {});
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.stats.memoized, 5u);
  EXPECT_EQ(resumed.stats.executed, 24u - 5u);
  EXPECT_EQ(exp::aggregate_json(resumed.aggregate),
            exp::aggregate_json(reference.aggregate));
}

TEST(TrialRunner, DuplicateKeysExecuteOnce) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 1;
  const exp::BoundSpace space(adapter, spec);
  std::vector<exp::TrialTask> tasks;
  tasks.push_back(exp::make_trial(spec, space, {0, 0, 0}, 0, 0));
  tasks.push_back(exp::make_trial(spec, space, {0, 0, 0}, 0, 1));
  exp::ResultStore store;
  exp::TrialRunner runner(adapter, store, {});
  const auto records = runner.run(tasks);
  ASSERT_EQ(records.size(), 2u);
  ASSERT_TRUE(records[0].has_value());
  ASSERT_TRUE(records[1].has_value());
  EXPECT_EQ(records[0]->key, records[1]->key);
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().memoized, 1u);
  EXPECT_EQ(store.size(), 1u);
}

// ----------------------------------------------------------- aggregation --

TEST(Aggregate, MeansAndMarginalsMatchHandComputation) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 1;
  spec.dims = {{"a", {"1", "3"}}, {"b", {"10"}}, {"mode", {"off", "on"}}};
  exp::ResultStore store;
  const auto outcome = exp::run_campaign(spec, adapter, store, {});
  const auto& agg = outcome.aggregate;
  // Objectives: a + 0.1*b + 5*mode over a in {1,3}, b = 10, mode in {0,1}:
  //   (1,10,off)=2, (1,10,on)=7, (3,10,off)=4, (3,10,on)=9.
  ASSERT_EQ(agg.points, 4u);
  ASSERT_EQ(agg.trials, 4u);
  EXPECT_TRUE(agg.complete);
  ASSERT_EQ(agg.ranked.size(), 4u);
  EXPECT_DOUBLE_EQ(agg.ranked[0].mean_objective, 2.0);  // best first
  EXPECT_DOUBLE_EQ(agg.ranked[1].mean_objective, 4.0);
  EXPECT_DOUBLE_EQ(agg.ranked[2].mean_objective, 7.0);
  EXPECT_DOUBLE_EQ(agg.ranked[3].mean_objective, 9.0);
  EXPECT_EQ(agg.ranked[0].labels[2], "off");
  ASSERT_EQ(agg.param_names,
            (std::vector<std::string>{"a", "b", "mode"}));

  // Marginals: a=1 -> mean(2,7)=4.5; a=3 -> mean(4,9)=6.5;
  //            mode=off -> mean(2,4)=3; mode=on -> mean(7,9)=8.
  double a1 = 0, a3 = 0, off = 0, on = 0;
  for (const auto& cell : agg.marginals) {
    if (cell.dim == "a" && cell.option == "1") a1 = cell.mean_objective;
    if (cell.dim == "a" && cell.option == "3") a3 = cell.mean_objective;
    if (cell.dim == "mode" && cell.option == "off")
      off = cell.mean_objective;
    if (cell.dim == "mode" && cell.option == "on") on = cell.mean_objective;
    // b is pinned to one option, so its single cell covers all 4 trials.
    EXPECT_EQ(cell.trials, cell.dim == "b" ? 4u : 2u);
  }
  EXPECT_DOUBLE_EQ(a1, 4.5);
  EXPECT_DOUBLE_EQ(a3, 6.5);
  EXPECT_DOUBLE_EQ(off, 3.0);
  EXPECT_DOUBLE_EQ(on, 8.0);
}

TEST(Aggregate, RepeatsCollapseWithBootstrapInterval) {
  // An adapter whose objective depends on the repeat-salted seed, so
  // repeats spread and the CI is non-degenerate.
  class NoisyAdapter final : public exp::SimulatorAdapter {
   public:
    std::string domain() const override { return "noisy"; }
    std::string objective() const override { return "cost"; }
    std::vector<exp::ParamSpec> params() const override {
      return {{"x", {1.0, 2.0}, {}}};
    }
    exp::TrialResult run(const std::vector<double>& v, std::uint64_t seed,
                         double) const override {
      exp::TrialResult r;
      r.objective = v[0] + static_cast<double>(seed % 11) / 10.0;
      r.metrics = {{"cost", r.objective}};
      return r;
    }
  };
  NoisyAdapter adapter;
  exp::CampaignSpec spec;
  spec.name = "noisy";
  spec.domain = "noisy";
  spec.repeats = 8;
  exp::ResultStore store;
  const auto outcome = exp::run_campaign(spec, adapter, store, {});
  ASSERT_EQ(outcome.aggregate.points, 2u);
  ASSERT_EQ(outcome.aggregate.trials, 16u);
  for (const auto& point : outcome.aggregate.ranked) {
    EXPECT_EQ(point.repeats, 8u);
    EXPECT_LE(point.objective_ci.lo, point.mean_objective);
    EXPECT_GE(point.objective_ci.hi, point.mean_objective);
  }
}

// ----------------------------------------------------------- explore mode --

TEST(ExploreMode, DeterministicBudgetedAndFindsGridOptimum) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.mode = exp::CampaignMode::kExplore;
  spec.trials = 30;  // point-evaluation budget over a 12-point space
  spec.repeats = 1;
  exp::ResultStore store_a;
  const auto a = exp::run_campaign(spec, adapter, store_a, {});
  EXPECT_TRUE(a.complete);
  EXPECT_LE(a.stats.executed, 30u);
  EXPECT_FALSE(a.trace.best_point.empty());
  // Enough budget over a 12-point space to find the global optimum
  // (a=1, b=10, mode=off -> objective 2).
  ASSERT_FALSE(a.aggregate.ranked.empty());
  EXPECT_DOUBLE_EQ(a.aggregate.ranked[0].mean_objective, 2.0);
  EXPECT_DOUBLE_EQ(a.trace.best_quality, 1.0 / (1.0 + 2.0));

  exp::ResultStore store_b;
  exp::RunnerConfig parallel;
  parallel.threads = 4;
  const auto b = exp::run_campaign(spec, adapter, store_b, parallel);
  EXPECT_EQ(exp::aggregate_json(a.aggregate),
            exp::aggregate_json(b.aggregate));
}

TEST(ExploreMode, EnumerateTrialsRefusesExplore) {
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.mode = exp::CampaignMode::kExplore;
  const exp::BoundSpace space(adapter, spec);
  EXPECT_THROW(exp::enumerate_trials(spec, space), std::logic_error);
}

// -------------------------------------------------------- domain adapters --

TEST(Adapters, AllDomainsRunDeterministicTrials) {
  for (const auto& domain : exp::adapter_domains()) {
    SCOPED_TRACE(domain);
    const auto adapter = exp::make_adapter(domain);
    EXPECT_EQ(adapter->domain(), domain);
    const auto params = adapter->params();
    ASSERT_GE(params.size(), 3u) << "campaign space too small";
    // lo, hi: every dimension at its first / last option. replay: lo, but
    // replaying the domain's catalog scenario where it has one — the
    // narrowest machine shape must still fit every replayed task.
    std::vector<double> lo, hi, replay;
    for (const auto& param : params) {
      ASSERT_FALSE(param.values.empty());
      if (param.categorical()) {
        ASSERT_EQ(param.labels.size(), param.values.size());
      }
      lo.push_back(param.values.front());
      hi.push_back(param.values.back());
      replay.push_back(param.name == "workload.scenario" ? param.values.back()
                                                         : lo.back());
    }
    const auto once = adapter->run(lo, 77, 0.05);
    const auto again = adapter->run(lo, 77, 0.05);
    EXPECT_EQ(once.objective, again.objective);
    ASSERT_EQ(once.metrics.size(), again.metrics.size());
    for (std::size_t i = 0; i < once.metrics.size(); ++i)
      EXPECT_EQ(once.metrics[i].second, again.metrics[i].second);
    EXPECT_TRUE(std::isfinite(once.objective));
    // Metric names/order must not depend on the values (column contract).
    const auto other = adapter->run(hi, 78, 0.05);
    ASSERT_EQ(other.metrics.size(), once.metrics.size());
    for (std::size_t i = 0; i < once.metrics.size(); ++i)
      EXPECT_EQ(other.metrics[i].first, once.metrics[i].first);
    const auto replayed = adapter->run(replay, 79, 0.05);
    EXPECT_TRUE(std::isfinite(replayed.objective));
    EXPECT_EQ(replayed.objective, adapter->run(replay, 79, 0.05).objective);
    ASSERT_EQ(replayed.metrics.size(), once.metrics.size());
    for (std::size_t i = 0; i < once.metrics.size(); ++i)
      EXPECT_EQ(replayed.metrics[i].first, once.metrics[i].first);
    // The declared objective appears among the metrics.
    bool found = false;
    for (const auto& [name, value] : once.metrics)
      if (name == adapter->objective()) {
        found = true;
        EXPECT_EQ(value, once.objective);
      }
    EXPECT_TRUE(found) << adapter->objective();
  }
  EXPECT_THROW(exp::make_adapter("fpga"), std::invalid_argument);
}

// ------------------------------------------------- end-to-end determinism --

TEST(CampaignEndToEnd, TwoDomainsByteIdenticalStoresAcrossThreads) {
  // The acceptance property: a campaign over >= 2 real domains yields
  // byte-identical JSONL stores and aggregates at 1 and 8 threads.
  const char* kSpecs[] = {
      "campaign sv\ndomain serverless\nmode grid\nrepeats 2\nseed 5\n"
      "scale 0.05\ndim keep_alive 0 300\ndim prewarmed 0 2\n"
      "dim max_instances 32\ndim workload.scenario synthetic\n",
      "campaign pp\ndomain p2p\nmode random\ntrials 4\nrepeats 2\n"
      "seed 3\nscale 0.02\ndim initial_seeds 1 4\n",
  };
  for (const char* text : kSpecs) {
    const auto spec = exp::parse_campaign_spec(text);
    SCOPED_TRACE(spec.domain);
    const auto adapter = exp::make_adapter(spec.domain);
    std::string store_bytes, aggregate_bytes;
    for (const std::size_t threads : {1u, 8u}) {
      const auto path = temp_path(spec.name + "_t" +
                                  std::to_string(threads) + ".jsonl");
      std::remove(path.c_str());
      exp::ResultStore store(path);
      exp::RunnerConfig config;
      config.threads = threads;
      const auto outcome = exp::run_campaign(spec, *adapter, store, config);
      EXPECT_TRUE(outcome.complete);
      const auto bytes = slurp(path);
      const auto json = exp::aggregate_json(outcome.aggregate);
      if (store_bytes.empty()) {
        store_bytes = bytes;
        aggregate_bytes = json;
      } else {
        EXPECT_EQ(bytes, store_bytes) << "threads=" << threads;
        EXPECT_EQ(json, aggregate_bytes) << "threads=" << threads;
      }
      std::remove(path.c_str());
    }
  }
}

TEST(CampaignEndToEnd, ResumeAfterTruncationMatchesUninterrupted) {
  const auto spec = exp::parse_campaign_spec(
      "campaign rz\ndomain serverless\nmode grid\nrepeats 2\nseed 5\n"
      "scale 0.05\ndim keep_alive 0 300\ndim prewarmed 0 2\n"
      "dim max_instances 32\ndim workload.scenario synthetic\n");
  const auto adapter = exp::make_adapter(spec.domain);

  exp::ResultStore reference_store;
  const auto reference =
      exp::run_campaign(spec, *adapter, reference_store, {});

  const auto path = temp_path("resume.jsonl");
  std::remove(path.c_str());
  {
    exp::ResultStore store(path);
    exp::RunnerConfig capped;
    capped.max_executed = 3;
    const auto first = exp::run_campaign(spec, *adapter, store, capped);
    EXPECT_FALSE(first.complete);
  }
  // Crash simulation: truncate mid-line.
  auto content = slurp(path);
  ASSERT_GT(content.size(), 25u);
  content.resize(content.size() - 25);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  exp::ResultStore store(path);
  EXPECT_EQ(store.recovered() + 1, 3u);  // one record lost to the crash
  EXPECT_GE(store.discarded_lines(), 1u);
  const auto resumed = exp::run_campaign(spec, *adapter, store, {});
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.stats.memoized, 2u);
  EXPECT_EQ(exp::aggregate_json(resumed.aggregate),
            exp::aggregate_json(reference.aggregate));
  std::remove(path.c_str());
}

TEST(CampaignEndToEnd, FaultRateSweepGradesTrialsAndMergesDigests) {
  // A faults.rate sweep is the telemetry plane's end-to-end contract:
  // every trial is graded against its adapter's SLO (slo_pass/slo_alerts
  // metrics), per-trial digests round-trip through the JSONL store, and
  // the aggregate reports a merged digest per design point.
  const auto spec = exp::parse_campaign_spec(
      "campaign slo-sweep\ndomain serverless\nmode grid\nrepeats 2\n"
      "seed 5\nscale 0.05\ndim keep_alive 300\ndim prewarmed 0\n"
      "dim max_instances 32\ndim faults.rate 0 40\n"
      "dim workload.scenario synthetic\n");
  const auto adapter = exp::make_adapter(spec.domain);
  const auto path = temp_path("slo_sweep.jsonl");
  std::remove(path.c_str());
  exp::ResultStore store(path);
  const auto outcome = exp::run_campaign(spec, *adapter, store, {});
  EXPECT_TRUE(outcome.complete);

  // Store level: every persisted record is graded and its digest parses.
  const auto content = slurp(path);
  std::size_t records = 0;
  std::uint64_t digest_total = 0;
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    exp::TrialRecord record;
    ASSERT_TRUE(exp::parse_trial_line(line, record)) << line;
    ++records;
    double alerts = -1.0, pass = -1.0;
    for (const auto& [name, value] : record.metrics) {
      if (name == "slo_alerts") alerts = value;
      if (name == "slo_pass") pass = value;
    }
    ASSERT_GE(alerts, 0.0) << "trial without slo_alerts: " << line;
    EXPECT_EQ(pass, alerts == 0.0 ? 1.0 : 0.0)
        << "slo_pass must grade exactly on alert count";
    obs::Digest d;
    ASSERT_TRUE(obs::Digest::deserialize(record.digest, d)) << line;
    EXPECT_GT(d.count(), 0u) << "serverless trials must record latencies";
    digest_total += d.count();
  }
  EXPECT_EQ(records, 4u);  // 2 design points x 2 repeats

  // Aggregate level: a merged digest per point (counts add up across
  // repeats) and the mean SLO grade per design point; the fault-free
  // point must pass its SLO outright.
  const auto& agg = outcome.aggregate;
  std::size_t rate_idx = agg.param_names.size();
  for (std::size_t i = 0; i < agg.param_names.size(); ++i)
    if (agg.param_names[i] == "faults.rate") rate_idx = i;
  ASSERT_LT(rate_idx, agg.param_names.size());
  std::uint64_t merged_total = 0;
  for (const auto& point : agg.ranked) {
    merged_total += point.digest.count();
    double mean_pass = -1.0;
    for (const auto& [name, value] : point.mean_metrics)
      if (name == "slo_pass") mean_pass = value;
    ASSERT_GE(mean_pass, 0.0);
    if (point.values[rate_idx] == 0.0) {
      EXPECT_EQ(mean_pass, 1.0) << "fault-free trials may not burn budget";
    }
  }
  EXPECT_EQ(merged_total, digest_total);
  const auto json = exp::aggregate_json(outcome.aggregate);
  EXPECT_NE(json.find("\"digest\""), std::string::npos);
  EXPECT_NE(json.find("\"slo_pass\""), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- rendering --

TEST(Rendering, AggregateJsonAndTableCarryParamNames)
{
  LinearAdapter adapter;
  auto spec = linear_spec();
  spec.repeats = 1;
  exp::ResultStore store;
  const auto outcome = exp::run_campaign(spec, adapter, store, {});
  const auto json = exp::aggregate_json(outcome.aggregate);
  EXPECT_NE(json.find("\"mode\":\"grid\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":"), std::string::npos);
  EXPECT_NE(json.find("\"marginals\""), std::string::npos);
  const auto table = exp::aggregate_table(outcome.aggregate, 3);
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("mode=off"), std::string::npos);
  EXPECT_NE(table.find("marginals"), std::string::npos);
}

// --------------------------------------------- store tail-repair edges --

TEST(ResultStore, EmptyFileRecoversCleanly) {
  const auto path = temp_path("empty.jsonl");
  std::remove(path.c_str());
  { std::ofstream out(path, std::ios::binary); }  // zero bytes
  exp::ResultStore store(path);
  EXPECT_EQ(store.recovered(), 0u);
  EXPECT_EQ(store.discarded_lines(), 0u);
  EXPECT_EQ(store.size(), 0u);
  // The store is still usable: an append lands and survives reopening.
  exp::TrialRecord record;
  record.key = "after_empty";
  record.objective = 4.0;
  store.append(record, {});
  exp::ResultStore reopened(path);
  EXPECT_EQ(reopened.recovered(), 1u);
  ASSERT_NE(reopened.lookup("after_empty"), nullptr);
  std::remove(path.c_str());
}

TEST(ResultStore, TornFinalLineWithoutNewlineIsDiscarded) {
  const auto path = temp_path("torn.jsonl");
  std::remove(path.c_str());
  {
    exp::ResultStore store(path);
    exp::TrialRecord record;
    record.key = "whole";
    record.objective = 1.0;
    store.append(record, {});
  }
  // A crash mid-write leaves a torn record with NO trailing newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"key\":\"torn\",\"objective\":2.0,\"metr";
  }
  exp::ResultStore repaired(path);
  EXPECT_EQ(repaired.recovered(), 1u);
  EXPECT_GE(repaired.discarded_lines(), 1u);
  EXPECT_NE(repaired.lookup("whole"), nullptr);
  EXPECT_EQ(repaired.lookup("torn"), nullptr);
  // Repair rewrote the file: a second reopen discards nothing.
  exp::ResultStore clean(path);
  EXPECT_EQ(clean.recovered(), 1u);
  EXPECT_EQ(clean.discarded_lines(), 0u);
  std::remove(path.c_str());
}

TEST(ResultStore, MutationFuzzOpensOrThrowsAndRepairsCleanly) {
  // Seeded mutation fuzz of a three-record store: 2,000 byte flips,
  // truncations, repeated lines and hostile-line swaps (the store writes no
  // spaces, so a token is a whole line). Every open must succeed or throw
  // std::runtime_error. An open store accounts for every non-empty line,
  // and its repaired file takes one more append and then reopens with
  // nothing discarded and the same records, objectives bit for bit.
  const auto path = temp_path("fuzz.jsonl");
  std::remove(path.c_str());
  {
    exp::ResultStore store(path);
    for (int i = 0; i < 3; ++i) {
      exp::TrialRecord record;
      record.key = "key_" + std::to_string(i);
      record.objective = canonical(0.1 * (i + 1));
      record.metrics = {{"m", canonical(1.0 / (i + 3))}};
      obs::Digest digest;
      digest.add(0.5 * (i + 1));
      record.digest = digest.serialize();
      exp::TrialRowContext ctx;
      ctx.domain = "linear";
      ctx.repeat = static_cast<std::uint32_t>(i);
      ctx.seed = 7;
      ctx.params = {{"a", std::to_string(i)}};
      store.append(record, ctx);
    }
  }
  const std::string base = slurp(path);
  const std::vector<std::string> hostile = {
      "", "{}", "null", "nan", "\"", "{\"key\":",
      "{\"key\":\"key_0\",\"objective\":9,\"metrics\":{}}",
      "{\"key\":\"n\",\"objective\":nan,\"metrics\":{}}",
      "{\"key\":\"big\",\"objective\":1e999,\"metrics\":{}}",
      "{\"key\":\"\",\"objective\":1,\"metrics\":{}}",
      "{\"key\":\"u\\u00\",\"objective\":1,\"metrics\":{}}",
      std::string(100'000, '['), std::string(100'000, '{')};
  std::mt19937_64 rng(20261018);
  int repaired = 0;
  for (int iter = 0; iter < 2'000; ++iter) {
    const std::string text = fuzz::mutate_text(base, iter, rng, hostile);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    std::size_t lines = 0;
    std::set<std::string> keys;
    for (std::size_t start = 0; start < text.size();) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      const std::string line = text.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      ++lines;
      exp::TrialRecord record;
      if (exp::parse_trial_line(line, record)) keys.insert(record.key);
    }
    std::map<std::string, std::uint64_t> objectives;
    try {
      exp::ResultStore store(path);
      ASSERT_EQ(store.recovered() + store.discarded_lines(), lines) << text;
      ASSERT_EQ(store.size(), keys.size()) << text;
      for (const std::string& key : keys) {
        const exp::TrialRecord* record = store.lookup(key);
        ASSERT_NE(record, nullptr) << key;
        objectives[key] = bits_of(record->objective);
      }
      if (store.discarded_lines() > 0) ++repaired;
      ASSERT_EQ(store.lookup("fresh"), nullptr);
      exp::TrialRecord fresh;
      fresh.key = "fresh";
      fresh.objective = 4.0;
      store.append(fresh, {});
    } catch (const std::runtime_error&) {
      continue;
    }
    objectives["fresh"] = bits_of(4.0);
    exp::ResultStore reopened(path);
    ASSERT_EQ(reopened.discarded_lines(), 0u) << text;
    ASSERT_EQ(reopened.recovered(), reopened.size()) << text;
    ASSERT_EQ(reopened.size(), objectives.size()) << text;
    for (const auto& [key, objective] : objectives) {
      const exp::TrialRecord* record = reopened.lookup(key);
      ASSERT_NE(record, nullptr) << key << "\n" << text;
      EXPECT_EQ(bits_of(record->objective), objective) << key;
    }
  }
  EXPECT_GT(repaired, 500);
  std::remove(path.c_str());
}

TEST(ResultStore, RepeatedResumeIsStable) {
  const auto path = temp_path("rere.jsonl");
  std::remove(path.c_str());
  for (int round = 0; round < 4; ++round) {
    exp::ResultStore store(path);
    EXPECT_EQ(store.recovered(), static_cast<std::size_t>(round));
    EXPECT_EQ(store.discarded_lines(), 0u);
    exp::TrialRecord record;
    record.key = "round_" + std::to_string(round);
    record.objective = round;
    store.append(record, {});
  }
  exp::ResultStore final_store(path);
  EXPECT_EQ(final_store.recovered(), 4u);
  for (int round = 0; round < 4; ++round)
    EXPECT_NE(final_store.lookup("round_" + std::to_string(round)), nullptr)
        << round;
  std::remove(path.c_str());
}

// -------------------------------------------------- the faults dimension --

TEST(Adapters, SimulationDomainsExposeFaultRateDimension) {
  for (const std::string domain : {"portfolio", "serverless", "autoscale",
                                   "p2p"}) {
    SCOPED_TRACE(domain);
    const auto adapter = exp::make_adapter(domain);
    bool found = false;
    for (const auto& param : adapter->params()) {
      if (param.name != "faults.rate") continue;
      found = true;
      ASSERT_FALSE(param.values.empty());
      // Option 0 is always the no-fault baseline, so committed campaign
      // specs can pin `dim faults.rate 0`.
      EXPECT_EQ(param.values.front(), 0.0);
    }
    EXPECT_TRUE(found);
  }
  // The graph adapter runs real kernels, not a simulation: no fault dim.
  for (const auto& param : exp::make_adapter("graph")->params())
    EXPECT_NE(param.name, "faults.rate");
}

TEST(Adapters, FaultRateDimensionBindsInCampaignSpecs) {
  // The committed campaign files pin `dim faults.rate 0`; the chaos sweep
  // binds all three options. Both must resolve against the adapter.
  const auto adapter = exp::make_adapter("serverless");
  exp::CampaignSpec pinned;
  pinned.domain = "serverless";
  pinned.dims = {{"faults.rate", {"0"}}};
  EXPECT_EQ(exp::BoundSpace(*adapter, pinned).grid_size() % 1u, 0u);
  exp::CampaignSpec swept;
  swept.domain = "serverless";
  swept.dims = {{"faults.rate", {"0", "8", "40"}}, {"keep_alive", {"600"}},
                {"prewarmed", {"0"}}, {"max_instances", {"128"}},
                {"workload.scenario", {"synthetic"}}};
  EXPECT_EQ(exp::BoundSpace(*adapter, swept).grid_size(), 3u);
}

TEST(Adapters, ServerlessFaultsDegradeSuccessRate) {
  const auto adapter = exp::make_adapter("serverless");
  const std::vector<double> clean = {300.0, 2.0, 128.0, 0.0, 0.0};
  const std::vector<double> faulted = {300.0, 2.0, 128.0, 40.0, 0.0};
  const auto metric = [](const exp::TrialResult& r, const std::string& name) {
    for (const auto& [key, value] : r.metrics)
      if (key == name) return value;
    ADD_FAILURE() << "missing metric " << name;
    return 0.0;
  };
  const auto base = adapter->run(clean, 55, 0.2);
  EXPECT_DOUBLE_EQ(metric(base, "success_rate"), 1.0);
  EXPECT_EQ(metric(base, "failed"), 0.0);
  EXPECT_EQ(metric(base, "faults_injected"), 0.0);
  const auto hit = adapter->run(faulted, 55, 0.2);
  EXPECT_GT(metric(hit, "faults_injected"), 0.0);
  EXPECT_LT(metric(hit, "success_rate"), 1.0);
  EXPECT_GT(metric(hit, "failed"), 0.0);
}

}  // namespace
