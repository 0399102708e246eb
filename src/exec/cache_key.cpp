#include "exec/cache_key.hpp"

#include <charconv>
#include <limits>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace gearsim::exec {

namespace {

/// Round-trip decimal rendering of a double (max_digits10 ⇒ no two
/// distinct values share a rendering).
std::string num(double v) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general,
      std::numeric_limits<double>::max_digits10);
  GEARSIM_ENSURE(ec == std::errc(), "double rendering failed");
  return std::string(buf, ptr);
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Append an integer's decimal rendering (std::to_string's digits).
template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  GEARSIM_ENSURE(ec == std::errc(), "integer rendering failed");
  out.append(buf, ptr);
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) { return util::fnv1a(bytes); }

std::string CacheKey::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t h = hash;
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::string canonical_config(const cluster::ClusterConfig& c) {
  std::string s = "cluster{name=" + c.name +
                  ",max_nodes=" + std::to_string(c.max_nodes);
  s += ",cpu{upc=" + num(c.cpu.upc_eff) +
       ",mem_lat=" + num(c.cpu.mem_latency.value()) + "}";
  s += ",gears[";
  for (std::size_t g = 0; g < c.gears.size(); ++g) {
    const cpu::Gear& gear = c.gears.gear(g);
    if (g) s += ';';
    s += std::to_string(gear.label) + ":" + num(gear.frequency.value()) +
         ":" + num(gear.voltage.value());
  }
  s += "]";
  s += ",power{base=" + num(c.power.base.value()) +
       ",static=" + num(c.power.cpu_static.value()) +
       ",dyn=" + num(c.power.cpu_dynamic.value()) +
       ",floor=" + num(c.power.stall_activity_floor) +
       ",idle_act=" + num(c.power.idle_activity) + "}";
  s += ",net{lat=" + num(c.network.latency.value()) +
       ",link=" + num(c.network.link_bandwidth) +
       ",backplane=" + num(c.network.backplane_bandwidth) +
       ",jitter=" + num(c.network.latency_jitter) +
       ",jitter_seed=" + num(c.network.jitter_seed) +
       ",topology=" + net::to_spec(c.network.topology) + "}";
  s += ",mpi{eager=" + num(std::uint64_t(c.mpi.eager_threshold)) +
       ",overhead=" + num(c.mpi.call_overhead.value()) + "}";
  s += ",imbalance=" + num(c.load_imbalance);
  s += ",switch_lat=" + num(c.gear_switch_latency.value());
  s += ",sample=" + std::string(c.sample_power ? "1" : "0");
  if (c.sample_power) {
    s += ",meter{rate=" + num(c.multimeter.sample_rate_hz) +
         ",noise=" + num(c.multimeter.noise_stddev_watts) +
         ",seed=" + num(c.multimeter.noise_seed) + "}";
  }
  s += ",seed=" + num(c.seed) + "}";
  return s;
}

std::string canonical_fault_plan(const faults::FaultPlan* plan) {
  if (plan == nullptr || plan->empty()) return "faults=none";
  std::string s = "faults{seed=" + num(plan->seed());
  s += ",crashes[";
  for (std::size_t i = 0; i < plan->crashes().size(); ++i) {
    const auto& ev = plan->crashes()[i];
    if (i) s += ';';
    s += num(std::uint64_t(ev.node)) + "@" + num(ev.at.value());
  }
  s += "],stragglers[";
  for (std::size_t i = 0; i < plan->stragglers().size(); ++i) {
    const auto& w = plan->stragglers()[i];
    if (i) s += ';';
    s += num(std::uint64_t(w.node)) + ":" + num(w.from.value()) + "-" +
         num(w.until.value()) + ">=" + num(std::uint64_t(w.min_gear_index));
  }
  s += "],links[";
  for (std::size_t i = 0; i < plan->link_faults().size(); ++i) {
    const auto& w = plan->link_faults()[i];
    if (i) s += ';';
    s += num(std::uint64_t(w.src)) + ">" + num(std::uint64_t(w.dst)) + ":" +
         num(w.from.value()) + "-" + num(w.until.value()) +
         ",p=" + num(w.loss_probability) +
         ",rto=" + num(w.retransmit_timeout.value()) +
         ",backoff=" + num(w.backoff) +
         ",retries=" + std::to_string(w.max_retries) +
         ",latx=" + num(w.latency_factor);
  }
  s += "],dropouts[";
  for (std::size_t i = 0; i < plan->meter_dropouts().size(); ++i) {
    const auto& w = plan->meter_dropouts()[i];
    if (i) s += ';';
    s += num(std::uint64_t(w.node)) + ":" + num(w.from.value()) + "-" +
         num(w.until.value());
  }
  s += "]";
  if (plan->checkpointing().has_value()) {
    const auto& k = *plan->checkpointing();
    s += ",ckpt{interval=" + num(k.interval.value()) +
         ",write=" + num(k.write_time.value()) +
         ",write_p=" + num(k.write_power.value()) +
         ",restart=" + num(k.restart_time.value()) +
         ",restart_p=" + num(k.restart_power.value()) +
         ",max=" + std::to_string(k.max_restarts) + "}";
  }
  s += "}";
  return s;
}

CacheKey sweep_point_key(const cluster::ClusterConfig& config,
                         std::string_view workload_signature, int nodes,
                         std::size_t gear_index, int rep,
                         const faults::FaultPlan* plan,
                         std::string_view policy_signature) {
  return PointKeyer(config, plan)
      .key(workload_signature, nodes, gear_index, rep, policy_signature);
}

PointKeyer::PointKeyer(const cluster::ClusterConfig& config,
                       const faults::FaultPlan* plan)
    : prefix_("gearsim-v" + std::to_string(kKeyFormatVersion) + "|" +
              canonical_config(config) + "|workload="),
      prefix_hash_(fnv1a(prefix_)),
      fault_tail_("|" + canonical_fault_plan(plan)) {}

CacheKey PointKeyer::key(std::string_view workload_signature, int nodes,
                         std::size_t gear_index, int rep,
                         std::string_view policy_signature) const {
  const std::string_view policy =
      policy_signature.empty() ? std::string_view("none") : policy_signature;
  CacheKey key;
  std::string& s = key.text;
  // 64 covers the three rendered integers and their labels.
  s.reserve(prefix_.size() + workload_signature.size() + policy.size() +
            fault_tail_.size() + 64);
  s += prefix_;
  s += workload_signature;
  s += "|nodes=";
  append_int(s, nodes);
  s += "|gear=";
  append_int(s, gear_index);
  s += "|policy=";
  s += policy;
  s += "|rep=";
  append_int(s, rep);
  s += fault_tail_;
  key.hash = util::fnv1a(std::string_view(s).substr(prefix_.size()),
                         prefix_hash_);
  return key;
}

}  // namespace gearsim::exec
