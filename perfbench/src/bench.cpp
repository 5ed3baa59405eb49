#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t base) {
  if (seed == kDefaultSeed) return base;
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (seed + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0xffffffffULL;  // generators take 32-bit seeds well
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::size_t passes_for(const Options& options, double nominal_s) {
  if (options.reduced) return 1;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(options.seconds / nominal_s)));
}

void set_timings(Context& ctx, double setup_s) {
  double wall = 0.0, cpu = 0.0;
  for (const auto& [op, s] : ctx.ops) {
    wall += median(s.wall);
    cpu += median(s.cpu);
  }
  ctx.e2e.set("setup_s", setup_s, "s");
  ctx.e2e.set("wall_s", wall, "s");
  ctx.e2e.set("cpu_s", cpu, "s");
}

OpTimer::OpTimer(Context& ctx, SpanLog& spans, const std::string& op,
                 double* sink)
    : samples_(spans.enabled() ? nullptr : &ctx.ops[op]),
      cpu0_(cpu_now()),
      timed_(spans, op, sink) {}

double OpTimer::stop() {
  const bool first = samples_ != nullptr;
  const double dt = timed_.stop();
  if (first) {
    samples_->wall.push_back(dt);
    samples_->cpu.push_back(cpu_now() - cpu0_);
    samples_ = nullptr;
  }
  return dt;
}

// ------------------------------------------------------------------ spans --

namespace {
thread_local std::vector<std::size_t> open_spans;

std::size_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}
}  // namespace

std::size_t SpanLog::begin(const std::string& name) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.start = wall_now();
  s.parent = current();
  s.root = root_;
  s.thread = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const std::size_t id = spans_.size();  // ids are 1-based
  open_spans.push_back(id);
  return id;
}

void SpanLog::end(std::size_t id) {
  if (!enabled_ || id == 0) return;
  const double t = wall_now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

void SpanLog::record(const std::string& name, double start, double end,
                     std::size_t parent) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.root = root_;
  s.thread = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::size_t SpanLog::current() const {
  return open_spans.empty() ? 0 : open_spans.back();
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time: a span's duration minus the union of its children's
  // intervals (children of one parent may overlap when they ran on
  // different threads).
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size() + 1);
  for (const auto& s : spans_) kids[s.parent].push_back({s.start, s.end});
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& ivs = kids[i + 1];
    std::sort(ivs.begin(), ivs.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : ivs) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"parent\":%zu,\"root\":%u,\"thread\":%zu,"
                  "\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"self\":%.9f}\n",
                  i + 1, s.parent, s.root, s.thread, s.name.c_str(), s.start,
                  s.end, (s.end - s.start) - covered);
    out << buf;
  }
}

Timed::Timed(SpanLog& log, const std::string& name, double* sink)
    : log_(log), sink_(sink), span_(log.begin(name)), start_(wall_now()) {}

Timed::~Timed() { stop(); }

double Timed::stop() {
  const double dt = wall_now() - start_;
  if (!running_) return dt;
  running_ = false;
  log_.end(span_);
  if (sink_ != nullptr) *sink_ += dt;
  return dt;
}

// ----------------------------------------------------------------- checks --

Checks::Checks(const Options& options) : options_(options) {
  if (!options.write_goldens.empty()) return;
  compare_ = options.seed == kDefaultSeed;
  if (!compare_) return;
  std::ifstream in(options.goldens);
  if (!in) {
    std::fprintf(stderr, "perfbench: no golden file %s\n",
                 options.goldens.c_str());
    return;  // every operation then misses its golden and fails
  }
  std::string op, hex;
  while (in >> op >> hex) golden_[op] = hex;
}

void Checks::output(const std::string& op, const std::string& text, bool ok) {
  ++attempted_;
  const std::string hex = digest(text);
  if (!options_.write_goldens.empty()) {
    const auto [it, fresh] = seen_.emplace(op, hex);
    if (!fresh && it->second != hex) {
      std::fprintf(stderr, "perfbench: %s is not deterministic\n", op.c_str());
      ok = false;
    }
  } else if (compare_) {
    const auto it = golden_.find(op);
    if (it == golden_.end() || it->second != hex) {
      std::fprintf(stderr, "perfbench: %s digest %s != golden %s\n%s\n",
                   op.c_str(), hex.c_str(),
                   it == golden_.end() ? "(none)" : it->second.c_str(),
                   text.c_str());
      ok = false;
    }
  } else {
    std::fprintf(stderr, "digest %s %s\n", op.c_str(), hex.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: operation %s failed\n", op.c_str());
    ++failed_;
  }
}

void Checks::threw(const std::string& op, const std::exception& e) {
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "perfbench: operation %s threw: %s\n", op.c_str(),
               e.what());
}

void Checks::finish() const {
  if (options_.write_goldens.empty()) return;
  std::ofstream out(options_.write_goldens);
  for (const auto& [op, hex] : seen_) out << op << ' ' << hex << '\n';
  if (!out) throw std::runtime_error("cannot write " + options_.write_goldens);
}

// ---------------------------------------------------------------- metrics --

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i) out << ", ";
    out << '"' << entries_[i].name << "\": {\"value\": "
        << exact(entries_[i].value) << ", \"unit\": \"" << entries_[i].unit
        << "\"}";
  }
  out << '}';
  return out.str();
}

}  // namespace perfbench
