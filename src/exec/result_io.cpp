#include "exec/result_io.hpp"

#include "util/assert.hpp"
#include "util/json.hpp"

namespace gearsim::exec {

// The JSON tree, parser and jnum/jstr emitters used to live here; they
// moved to util/json.hpp so the observability manifests and the bench
// regression gate share the exact same dialect (round-trip doubles).
namespace {

using json::field;
using json::jnum;
using json::jstr;

}  // namespace

std::string to_json(const cluster::RunResult& r) {
  std::string s = "{";
  s += "\"nodes\":" + std::to_string(r.nodes);
  s += ",\"gear_index\":" + std::to_string(r.gear_index);
  s += ",\"gear_label\":" + std::to_string(r.gear_label);
  s += ",\"policy_run\":" + std::string(r.policy_run ? "true" : "false");
  s += ",\"gear_min_index\":" + std::to_string(r.gear_min_index);
  s += ",\"gear_max_index\":" + std::to_string(r.gear_max_index);
  s += ",\"wall\":" + jnum(r.wall.value());
  s += ",\"energy\":" + jnum(r.energy.value());
  s += ",\"active_energy\":" + jnum(r.active_energy.value());
  s += ",\"idle_energy\":" + jnum(r.idle_energy.value());
  s += ",\"mean_active_power\":" + jnum(r.mean_active_power.value());
  s += ",\"mean_idle_power\":" + jnum(r.mean_idle_power.value());

  const trace::ClusterBreakdown& b = r.breakdown;
  s += ",\"breakdown\":{\"wall\":" + jnum(b.wall.value()) +
       ",\"active_max\":" + jnum(b.active_max.value()) +
       ",\"idle_derived\":" + jnum(b.idle_derived.value()) +
       ",\"active_mean\":" + jnum(b.active_mean.value()) +
       ",\"idle_mean\":" + jnum(b.idle_mean.value()) +
       ",\"critical\":" + jnum(b.critical.value()) +
       ",\"reducible\":" + jnum(b.reducible.value()) + ",\"ranks\":[";
  for (std::size_t i = 0; i < b.ranks.size(); ++i) {
    const trace::RankBreakdown& rb = b.ranks[i];
    if (i) s += ',';
    s += "{\"wall\":" + jnum(rb.wall.value()) +
         ",\"active\":" + jnum(rb.active.value()) +
         ",\"idle\":" + jnum(rb.idle.value()) +
         ",\"critical\":" + jnum(rb.critical.value()) +
         ",\"reducible\":" + jnum(rb.reducible.value()) +
         ",\"mpi_calls\":" + std::to_string(rb.mpi_calls) + "}";
  }
  s += "]}";

  s += ",\"node_energy\":[";
  for (std::size_t i = 0; i < r.node_energy.size(); ++i) {
    const power::NodeEnergy& ne = r.node_energy[i];
    if (i) s += ',';
    s += "{\"total\":" + jnum(ne.total.value()) +
         ",\"active\":" + jnum(ne.active.value()) +
         ",\"idle\":" + jnum(ne.idle.value()) +
         ",\"active_time\":" + jnum(ne.active_time.value()) +
         ",\"idle_time\":" + jnum(ne.idle_time.value()) + "}";
  }
  s += "]";

  s += ",\"mpi_calls\":" + std::to_string(r.mpi_calls);
  s += ",\"messages\":" + std::to_string(r.messages);
  s += ",\"net_bytes\":" + std::to_string(r.net_bytes);
  s += ",\"event_order_hash\":" + std::to_string(r.event_order_hash);
  s += ",\"gear_switches\":" + std::to_string(r.gear_switches);
  s += ",\"gear_residency\":[";
  for (std::size_t i = 0; i < r.gear_residency.size(); ++i) {
    if (i) s += ',';
    s += '[';
    for (std::size_t g = 0; g < r.gear_residency[i].size(); ++g) {
      if (g) s += ',';
      s += jnum(r.gear_residency[i][g].value());
    }
    s += ']';
  }
  s += "]";
  s += ",\"sampled_energy\":" +
       (r.sampled_energy.has_value() ? jnum(r.sampled_energy->value())
                                     : std::string("null"));
  s += ",\"sampled_coverage\":" + jnum(r.sampled_coverage);
  s += ",\"outcome\":" + std::to_string(static_cast<int>(r.outcome));
  s += ",\"retries\":" + std::to_string(r.retries);
  s += ",\"rework_time\":" + jnum(r.rework_time.value());
  s += ",\"rework_energy\":" + jnum(r.rework_energy.value());
  s += ",\"checkpoint_time\":" + jnum(r.checkpoint_time.value());
  s += ",\"checkpoint_energy\":" + jnum(r.checkpoint_energy.value());
  s += ",\"fatal_crash\":";
  if (r.fatal_crash.has_value()) {
    s += "{\"node\":" + std::to_string(r.fatal_crash->node) +
         ",\"at\":" + jnum(r.fatal_crash->at.value()) + "}";
  } else {
    s += "null";
  }
  s += ",\"retransmissions\":" + std::to_string(r.retransmissions);
  s += ",\"fault_events\":[";
  for (std::size_t i = 0; i < r.fault_events.size(); ++i) {
    const trace::FaultEvent& ev = r.fault_events[i];
    if (i) s += ',';
    s += "{\"kind\":" + std::to_string(static_cast<int>(ev.kind)) +
         ",\"node\":" + std::to_string(ev.node) +
         ",\"at\":" + jnum(ev.at.value()) +
         ",\"detail\":" + jstr(ev.detail) + "}";
  }
  s += "]}";
  return s;
}

cluster::RunResult result_from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  const json::Object& o = root.as_object();

  cluster::RunResult r;
  r.nodes = field(o, "nodes").as_int();
  r.gear_index = static_cast<std::size_t>(field(o, "gear_index").as_u64());
  r.gear_label = field(o, "gear_label").as_int();
  r.policy_run = field(o, "policy_run").as_bool();
  r.gear_min_index =
      static_cast<std::size_t>(field(o, "gear_min_index").as_u64());
  r.gear_max_index =
      static_cast<std::size_t>(field(o, "gear_max_index").as_u64());
  r.wall = seconds(field(o, "wall").as_double());
  r.energy = joules(field(o, "energy").as_double());
  r.active_energy = joules(field(o, "active_energy").as_double());
  r.idle_energy = joules(field(o, "idle_energy").as_double());
  r.mean_active_power = watts(field(o, "mean_active_power").as_double());
  r.mean_idle_power = watts(field(o, "mean_idle_power").as_double());

  const json::Object& b = field(o, "breakdown").as_object();
  r.breakdown.wall = seconds(field(b, "wall").as_double());
  r.breakdown.active_max = seconds(field(b, "active_max").as_double());
  r.breakdown.idle_derived = seconds(field(b, "idle_derived").as_double());
  r.breakdown.active_mean = seconds(field(b, "active_mean").as_double());
  r.breakdown.idle_mean = seconds(field(b, "idle_mean").as_double());
  r.breakdown.critical = seconds(field(b, "critical").as_double());
  r.breakdown.reducible = seconds(field(b, "reducible").as_double());
  for (const json::Value& rv : field(b, "ranks").as_array()) {
    const json::Object& ro = rv.as_object();
    trace::RankBreakdown rb;
    rb.wall = seconds(field(ro, "wall").as_double());
    rb.active = seconds(field(ro, "active").as_double());
    rb.idle = seconds(field(ro, "idle").as_double());
    rb.critical = seconds(field(ro, "critical").as_double());
    rb.reducible = seconds(field(ro, "reducible").as_double());
    rb.mpi_calls = static_cast<std::size_t>(field(ro, "mpi_calls").as_u64());
    r.breakdown.ranks.push_back(rb);
  }

  for (const json::Value& nv : field(o, "node_energy").as_array()) {
    const json::Object& no = nv.as_object();
    power::NodeEnergy ne;
    ne.total = joules(field(no, "total").as_double());
    ne.active = joules(field(no, "active").as_double());
    ne.idle = joules(field(no, "idle").as_double());
    ne.active_time = seconds(field(no, "active_time").as_double());
    ne.idle_time = seconds(field(no, "idle_time").as_double());
    r.node_energy.push_back(ne);
  }

  r.mpi_calls = field(o, "mpi_calls").as_u64();
  r.messages = field(o, "messages").as_u64();
  r.net_bytes = static_cast<Bytes>(field(o, "net_bytes").as_u64());
  r.event_order_hash = field(o, "event_order_hash").as_u64();
  r.gear_switches = field(o, "gear_switches").as_u64();
  for (const json::Value& rankv : field(o, "gear_residency").as_array()) {
    std::vector<Seconds> per_gear;
    for (const json::Value& gv : rankv.as_array()) {
      per_gear.push_back(seconds(gv.as_double()));
    }
    r.gear_residency.push_back(std::move(per_gear));
  }
  if (!field(o, "sampled_energy").is_null()) {
    r.sampled_energy = joules(field(o, "sampled_energy").as_double());
  }
  r.sampled_coverage = field(o, "sampled_coverage").as_double();
  const int outcome = field(o, "outcome").as_int();
  GEARSIM_REQUIRE(outcome >= 0 && outcome <= 2, "bad outcome code");
  r.outcome = static_cast<cluster::RunOutcome>(outcome);
  r.retries = field(o, "retries").as_int();
  r.rework_time = seconds(field(o, "rework_time").as_double());
  r.rework_energy = joules(field(o, "rework_energy").as_double());
  r.checkpoint_time = seconds(field(o, "checkpoint_time").as_double());
  r.checkpoint_energy = joules(field(o, "checkpoint_energy").as_double());
  if (!field(o, "fatal_crash").is_null()) {
    const json::Object& fc = field(o, "fatal_crash").as_object();
    faults::CrashEvent ev;
    ev.node = static_cast<std::size_t>(field(fc, "node").as_u64());
    ev.at = seconds(field(fc, "at").as_double());
    r.fatal_crash = ev;
  }
  r.retransmissions = field(o, "retransmissions").as_u64();
  for (const json::Value& ev : field(o, "fault_events").as_array()) {
    const json::Object& eo = ev.as_object();
    trace::FaultEvent fe;
    const int kind = field(eo, "kind").as_int();
    GEARSIM_REQUIRE(kind >= 0 && kind <= 7, "bad fault-event kind");
    fe.kind = static_cast<trace::FaultEventKind>(kind);
    fe.node = static_cast<std::size_t>(field(eo, "node").as_u64());
    fe.at = seconds(field(eo, "at").as_double());
    fe.detail = field(eo, "detail").as_string();
    r.fault_events.push_back(fe);
  }
  return r;
}

}  // namespace gearsim::exec
