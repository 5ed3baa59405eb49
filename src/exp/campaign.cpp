#include "atlarge/exp/campaign.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "atlarge/sim/thread_pool.hpp"

namespace atlarge::exp {
namespace {

constexpr char kDescriptorVersion[] = "exp1";
/// Grid campaigns beyond this are almost certainly a spec mistake (and
/// would swamp the memo store); random/explore modes are the tool for
/// big spaces.
constexpr std::size_t kMaxGridPoints = 100'000;

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void spec_error(std::size_t line, const std::string& what) {
  throw std::invalid_argument("campaign spec line " + std::to_string(line) +
                              ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::uint64_t parse_u64(const std::string& tok, std::size_t line,
                        const char* what) {
  // strtoull negates a leading '-' modulo 2^64 ("-1" reads as 2^64 - 1)
  // and saturates past 2^64 - 1; both are spec errors here.
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok[0] == '-' || end == tok.c_str() || *end != '\0' || errno == ERANGE)
    spec_error(line, std::string("bad ") + what + " '" + tok + "'");
  return static_cast<std::uint64_t>(v);
}

double parse_positive_double(const std::string& tok, std::size_t line,
                             const char* what) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !(v > 0.0))
    spec_error(line, std::string("bad ") + what + " '" + tok + "'");
  return v;
}

}  // namespace

std::string ParamSpec::option_label(std::size_t i) const {
  if (categorical()) return labels.at(i);
  return format_double(values.at(i));
}

std::string to_string(CampaignMode mode) {
  switch (mode) {
    case CampaignMode::kGrid: return "grid";
    case CampaignMode::kRandom: return "random";
    case CampaignMode::kExplore: return "explore";
  }
  return "?";
}

CampaignSpec parse_campaign_spec(const std::string& text) {
  CampaignSpec spec;
  bool saw_domain = false;
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const auto tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];
    const auto require_one = [&]() -> const std::string& {
      if (tokens.size() != 2)
        spec_error(lineno, "'" + keyword + "' takes exactly one value");
      return tokens[1];
    };
    if (keyword == "campaign") {
      spec.name = require_one();
    } else if (keyword == "domain") {
      spec.domain = require_one();
      saw_domain = true;
    } else if (keyword == "mode") {
      const std::string& m = require_one();
      if (m == "grid") spec.mode = CampaignMode::kGrid;
      else if (m == "random") spec.mode = CampaignMode::kRandom;
      else if (m == "explore") spec.mode = CampaignMode::kExplore;
      else spec_error(lineno, "unknown mode '" + m + "'");
    } else if (keyword == "repeats") {
      spec.repeats = parse_u64(require_one(), lineno, "repeats");
      if (spec.repeats == 0) spec_error(lineno, "repeats must be >= 1");
    } else if (keyword == "seed") {
      spec.seed = parse_u64(require_one(), lineno, "seed");
    } else if (keyword == "scale") {
      spec.scale = parse_positive_double(require_one(), lineno, "scale");
      if (spec.scale > 1.0) spec_error(lineno, "scale must be in (0, 1]");
    } else if (keyword == "trials") {
      spec.trials = parse_u64(require_one(), lineno, "trials");
      if (spec.trials == 0) spec_error(lineno, "trials must be >= 1");
    } else if (keyword == "threads") {
      spec.threads = parse_u64(require_one(), lineno, "threads");
      if (spec.threads == 0) spec_error(lineno, "threads must be >= 1");
      if (spec.threads > sim::ThreadPool::kMaxThreads)
        spec_error(lineno, "threads must be <= " +
                               std::to_string(sim::ThreadPool::kMaxThreads));
    } else if (keyword == "top") {
      spec.top_k = parse_u64(require_one(), lineno, "top");
      if (spec.top_k == 0) spec_error(lineno, "top must be >= 1");
    } else if (keyword == "dim") {
      if (tokens.size() < 3)
        spec_error(lineno, "dim needs a name and at least one option");
      const std::string& name = tokens[1];
      if (spec.dims.count(name))
        spec_error(lineno, "dim '" + name + "' listed twice");
      spec.dims[name] = std::vector<std::string>(tokens.begin() + 2,
                                                 tokens.end());
    } else {
      spec_error(lineno, "unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_domain)
    throw std::invalid_argument("campaign spec: missing 'domain' line");
  if (spec.name.empty()) spec.name = spec.domain + "-campaign";
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot read campaign spec '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_campaign_spec(buf.str());
}

BoundSpace::BoundSpace(const SimulatorAdapter& adapter,
                       const CampaignSpec& spec)
    : params_(adapter.params()) {
  if (params_.empty())
    throw std::invalid_argument("adapter '" + adapter.domain() +
                                "' exposes no parameters");
  auto pending = spec.dims;
  dims_.reserve(params_.size());
  for (std::size_t p = 0; p < params_.size(); ++p) {
    const ParamSpec& param = params_[p];
    if (param.values.empty() ||
        (param.categorical() && param.labels.size() != param.values.size()))
      throw std::invalid_argument("adapter parameter '" + param.name +
                                  "' has a malformed option list");
    BoundDimension dim;
    dim.name = param.name;
    dim.param_index = p;
    const auto it = pending.find(param.name);
    if (it == pending.end()) {
      for (std::uint32_t i = 0; i < param.values.size(); ++i)
        dim.option_indices.push_back(i);
    } else {
      for (const std::string& tok : it->second) {
        std::size_t found = param.values.size();
        if (param.categorical()) {
          for (std::size_t i = 0; i < param.labels.size(); ++i)
            if (param.labels[i] == tok) { found = i; break; }
        } else {
          char* end = nullptr;
          const double v = std::strtod(tok.c_str(), &end);
          if (end != tok.c_str() && *end == '\0')
            for (std::size_t i = 0; i < param.values.size(); ++i)
              if (param.values[i] == v) { found = i; break; }
        }
        if (found == param.values.size()) {
          std::string options;
          for (std::size_t i = 0; i < param.values.size(); ++i) {
            if (!options.empty()) options += ", ";
            options += param.option_label(i);
          }
          throw std::invalid_argument("dim '" + param.name + "': option '" +
                                      tok + "' not offered by the adapter (" +
                                      options + ")");
        }
        const auto idx = static_cast<std::uint32_t>(found);
        for (const std::uint32_t existing : dim.option_indices)
          if (existing == idx)
            throw std::invalid_argument("dim '" + param.name +
                                        "': duplicate option '" + tok + "'");
        dim.option_indices.push_back(idx);
      }
      pending.erase(it);
    }
    dims_.push_back(std::move(dim));
  }
  if (!pending.empty())
    throw std::invalid_argument("dim '" + pending.begin()->first +
                                "' is not a parameter of domain '" +
                                adapter.domain() + "'");
}

std::size_t BoundSpace::grid_size() const noexcept {
  std::size_t n = 1;
  for (const auto& dim : dims_) n *= dim.option_indices.size();
  return n;
}

std::vector<std::uint32_t> BoundSpace::option_counts() const {
  std::vector<std::uint32_t> counts;
  counts.reserve(dims_.size());
  for (const auto& dim : dims_)
    counts.push_back(static_cast<std::uint32_t>(dim.option_indices.size()));
  return counts;
}

std::vector<double> BoundSpace::values(const design::DesignPoint& point)
    const {
  if (point.size() != dims_.size())
    throw std::invalid_argument("BoundSpace::values: arity mismatch");
  std::vector<double> out(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const BoundDimension& dim = dims_[d];
    out[d] = params_[dim.param_index]
                 .values[dim.option_indices.at(point[d])];
  }
  return out;
}

std::vector<std::string> BoundSpace::labels(const design::DesignPoint& point)
    const {
  if (point.size() != dims_.size())
    throw std::invalid_argument("BoundSpace::labels: arity mismatch");
  std::vector<std::string> out(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const BoundDimension& dim = dims_[d];
    out[d] = params_[dim.param_index].option_label(
        dim.option_indices.at(point[d]));
  }
  return out;
}

design::DesignPoint BoundSpace::grid_point(std::size_t index) const {
  design::DesignPoint point(dims_.size(), 0);
  // Mixed radix, last dimension fastest.
  for (std::size_t d = dims_.size(); d-- > 0;) {
    const std::size_t radix = dims_[d].option_indices.size();
    point[d] = static_cast<std::uint32_t>(index % radix);
    index /= radix;
  }
  return point;
}

design::DesignPoint BoundSpace::random_point(stats::Rng& rng) const {
  design::DesignPoint point(dims_.size(), 0);
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    point[d] = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(dims_[d].option_indices.size()) - 1));
  }
  return point;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string trial_descriptor(const CampaignSpec& spec, const BoundSpace& space,
                             const std::vector<double>& values,
                             std::uint32_t repeat) {
  std::string d = kDescriptorVersion;
  d += '|';
  d += spec.domain;
  d += "|s";
  d += std::to_string(spec.seed);
  d += "|sc";
  d += format_double(spec.scale);
  const auto& params = space.params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    d += '|';
    d += params[p].name;
    d += '=';
    d += format_double(values.at(p));
  }
  d += "|r";
  d += std::to_string(repeat);
  return d;
}

TrialTask make_trial(const CampaignSpec& spec, const BoundSpace& space,
                     const design::DesignPoint& point, std::uint32_t repeat,
                     std::size_t index) {
  TrialTask task;
  task.index = index;
  task.point = point;
  task.values = space.values(point);
  task.labels = space.labels(point);
  task.repeat = repeat;
  const std::string descriptor =
      trial_descriptor(spec, space, task.values, repeat);
  const std::uint64_t h = fnv1a64(descriptor);
  task.seed = splitmix64(h);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  task.key = buf;
  return task;
}

std::vector<TrialTask> enumerate_trials(const CampaignSpec& spec,
                                        const BoundSpace& space) {
  if (spec.mode == CampaignMode::kExplore)
    throw std::logic_error(
        "enumerate_trials: explore mode schedules adaptively; use "
        "run_campaign");
  std::vector<TrialTask> tasks;
  const auto add_point = [&](const design::DesignPoint& point) {
    for (std::uint32_t r = 0; r < spec.repeats; ++r)
      tasks.push_back(make_trial(spec, space, point, r, tasks.size()));
  };
  if (spec.mode == CampaignMode::kGrid) {
    const std::size_t n = space.grid_size();
    if (n > kMaxGridPoints)
      throw std::invalid_argument(
          "grid campaign has " + std::to_string(n) +
          " points (max " + std::to_string(kMaxGridPoints) +
          "); restrict dims or use random/explore mode");
    tasks.reserve(n * spec.repeats);
    for (std::size_t i = 0; i < n; ++i) add_point(space.grid_point(i));
  } else {
    stats::Rng rng(splitmix64(spec.seed ^ 0xa77a96e5u));
    tasks.reserve(spec.trials * spec.repeats);
    for (std::size_t i = 0; i < spec.trials; ++i)
      add_point(space.random_point(rng));
  }
  return tasks;
}

}  // namespace atlarge::exp
