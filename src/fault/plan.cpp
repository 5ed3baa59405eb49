#include "atlarge/fault/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "atlarge/stats/rng.hpp"

namespace atlarge::fault {
namespace {

constexpr char kHeader[] = "faultplan v1";

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// %.17g round-trips every finite double exactly.
std::string format_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::invalid_argument("fault plan line " + std::to_string(line) +
                              ": " + what);
}

/// A finite double (strtod also reads "inf" and "nan"); with
/// `non_negative`, one that is >= 0 as well.
double parse_double(const std::string& tok, std::size_t line,
                    const char* what, bool non_negative) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !std::isfinite(v) ||
      (non_negative && v < 0.0))
    parse_error(line, std::string("bad ") + what + " '" + tok + "'");
  return v;
}

/// An unsigned integer no larger than `max`. strtoull negates a leading
/// '-' modulo 2^64 ("-1" reads as 2^64 - 1) and saturates past 2^64 - 1;
/// both are errors here.
std::uint64_t parse_uint(const std::string& tok, std::size_t line,
                         const char* what, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok[0] == '-' || end == tok.c_str() || *end != '\0' ||
      errno == ERANGE || v > max)
    parse_error(line, std::string("bad ") + what + " '" + tok + "'");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kMachineCrash: return "machine_crash";
    case FaultKind::kMessageLoss: return "message_loss";
    case FaultKind::kMessageDelay: return "message_delay";
    case FaultKind::kColdStartFailure: return "cold_start_failure";
    case FaultKind::kChurnSpike: return "churn_spike";
    case FaultKind::kSlowdown: return "slowdown";
  }
  return "?";
}

bool fault_kind_from_string(const std::string& token, FaultKind& out) {
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (token == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

const char* span_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kMachineCrash: return "fault.machine_crash";
    case FaultKind::kMessageLoss: return "fault.message_loss";
    case FaultKind::kMessageDelay: return "fault.message_delay";
    case FaultKind::kColdStartFailure: return "fault.cold_start_failure";
    case FaultKind::kChurnSpike: return "fault.churn_spike";
    case FaultKind::kSlowdown: return "fault.slowdown";
  }
  return "fault.?";
}

FaultPlan FaultPlan::generate(const FaultSpec& spec) {
  if (!(spec.horizon > 0.0))
    throw std::invalid_argument("FaultPlan::generate: horizon must be > 0");
  if (spec.rate < 0.0)
    throw std::invalid_argument("FaultPlan::generate: rate must be >= 0");
  if (spec.targets == 0)
    throw std::invalid_argument("FaultPlan::generate: targets must be >= 1");
  for (const FaultKind k : spec.kinds) {
    if (static_cast<std::size_t>(k) >= kFaultKindCount)
      throw std::invalid_argument("FaultPlan::generate: bad fault kind");
  }

  FaultPlan plan;
  plan.seed_ = spec.seed;
  const auto n = static_cast<std::size_t>(
      std::llround(spec.rate * spec.horizon / 1'000.0));
  plan.events_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each event is a pure function of (seed, i): plans generated at a
    // lower rate with the same seed are exact subsets of higher-rate
    // plans, which makes fault-rate sweeps monotone-comparable.
    stats::Rng rng(splitmix64(spec.seed ^
                              (0x51bafa57c0ffee11ULL +
                               0x9e3779b97f4a7c15ULL * (i + 1))));
    FaultEvent e;
    e.time = rng.uniform(0.0, spec.horizon);
    if (spec.kinds.empty()) {
      e.kind = static_cast<FaultKind>(rng.uniform_int(
          0, static_cast<std::int64_t>(kFaultKindCount) - 1));
    } else {
      e.kind = spec.kinds[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.kinds.size()) - 1))];
    }
    e.target = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.targets) - 1));
    e.duration = rng.exponential(1.0 / std::max(spec.mean_duration, 1e-9));
    e.magnitude = std::clamp(spec.mean_magnitude * (0.5 + rng.uniform()),
                             0.01, 1.0);
    plan.events_.push_back(e);
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return plan;
}

void FaultPlan::add(const FaultEvent& event) {
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  events_.insert(pos, event);
}

std::vector<FaultEvent> FaultPlan::events_between(double t0, double t1) const {
  std::vector<FaultEvent> out;
  for (const FaultEvent& e : events_) {
    if (e.time >= t1) break;
    if (e.time >= t0) out.push_back(e);
  }
  return out;
}

std::string FaultPlan::serialize() const {
  std::string out = kHeader;
  out += "\nseed ";
  out += std::to_string(seed_);
  out += '\n';
  for (const FaultEvent& e : events_) {
    out += "event ";
    out += format_exact(e.time);
    out += ' ';
    out += to_string(e.kind);
    out += ' ';
    out += std::to_string(e.target);
    out += ' ';
    out += format_exact(e.duration);
    out += ' ';
    out += format_exact(e.magnitude);
    out += '\n';
  }
  return out;
}

FaultPlan FaultPlan::deserialize(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  bool saw_header = false;
  double last_time = -std::numeric_limits<double>::infinity();
  while (std::getline(in, raw)) {
    ++lineno;
    std::istringstream line(raw);
    std::vector<std::string> tokens;
    std::string tok;
    while (line >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;
    if (!saw_header) {
      if (raw != kHeader)
        parse_error(lineno, "expected '" + std::string(kHeader) + "'");
      saw_header = true;
      continue;
    }
    if (tokens[0] == "seed") {
      if (tokens.size() != 2) parse_error(lineno, "seed takes one value");
      plan.seed_ = parse_uint(tokens[1], lineno, "seed",
                              std::numeric_limits<std::uint64_t>::max());
    } else if (tokens[0] == "event") {
      if (tokens.size() != 6)
        parse_error(lineno,
                    "event takes <time> <kind> <target> <duration> "
                    "<magnitude>");
      FaultEvent e;
      e.time = parse_double(tokens[1], lineno, "time", true);
      if (!fault_kind_from_string(tokens[2], e.kind))
        parse_error(lineno, "unknown fault kind '" + tokens[2] + "'");
      e.target = static_cast<std::uint32_t>(
          parse_uint(tokens[3], lineno, "target",
                     std::numeric_limits<std::uint32_t>::max()));
      e.duration = parse_double(tokens[4], lineno, "duration", true);
      e.magnitude = parse_double(tokens[5], lineno, "magnitude", false);
      if (e.time < last_time)
        parse_error(lineno, "events out of time order");
      last_time = e.time;
      plan.events_.push_back(e);
    } else {
      parse_error(lineno, "unknown keyword '" + tokens[0] + "'");
    }
  }
  if (!saw_header)
    throw std::invalid_argument("fault plan: missing 'faultplan v1' header");
  return plan;
}

double RetryPolicy::backoff_delay(std::uint32_t retry_index) const noexcept {
  if (retry_index == 0) return 0.0;
  double delay = backoff_base;
  for (std::uint32_t i = 1; i < retry_index; ++i) {
    delay *= backoff_factor;
    if (delay >= backoff_cap) break;
  }
  return std::min(delay, backoff_cap);
}

}  // namespace atlarge::fault
