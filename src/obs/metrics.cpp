#include "atlarge/obs/metrics.hpp"

#include "atlarge/obs/json.hpp"

namespace atlarge::obs {

std::string Registry::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.key(name).value(c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.key(name).value(g.value());
  w.end_object();
  w.key("digests").begin_object();
  for (const auto& [name, d] : digests_) {
    w.key(name).begin_object();
    w.key("count").value(d.count());
    w.key("sum").value(d.sum());
    w.key("min").value(d.min());
    w.key("max").value(d.max());
    w.key("mean").value(d.mean());
    w.key("p50").value(d.p50());
    w.key("p95").value(d.p95());
    w.key("p99").value(d.p99());
    w.key("p999").value(d.p999());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace atlarge::obs
