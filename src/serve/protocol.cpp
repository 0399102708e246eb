#include "serve/protocol.hpp"

#include <utility>

#include "exec/result_io.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"

namespace gearsim::serve {

namespace {

/// Positive-int field with a default; throws on non-numbers.
int int_field(const json::Object& obj, std::string_view name, int fallback) {
  const json::Value* v = json::find(obj, name);
  return v == nullptr ? fallback : v->as_int();
}

std::string string_field(const json::Object& obj, std::string_view name,
                         std::string fallback) {
  const json::Value* v = json::find(obj, name);
  return v == nullptr ? std::move(fallback) : v->as_string();
}

const json::Object& ok_payload(const json::Value& response,
                               std::string_view type) {
  GEARSIM_REQUIRE(response.is_object(), "response is not a JSON object");
  const json::Object& obj = response.as_object();
  GEARSIM_REQUIRE(json::field(obj, "status").as_string() == "ok",
                  "response status is not ok");
  GEARSIM_REQUIRE(json::field(obj, "type").as_string() == type,
                  "unexpected response type");
  return obj;
}

}  // namespace

Request parse_request(std::string_view line) {
  const json::Value doc = json::parse(line);
  GEARSIM_REQUIRE(doc.is_object(), "request is not a JSON object");
  const json::Object& obj = doc.as_object();
  Request request;
  request.type = json::field(obj, "type").as_string();
  GEARSIM_REQUIRE(request.type == "run" || request.type == "sweep" ||
                      request.type == "race" || request.type == "stats" ||
                      request.type == "shutdown",
                  "unknown request type: " + request.type);
  request.cluster = string_field(obj, "cluster", request.cluster);
  request.workload = string_field(obj, "workload", request.workload);
  request.nodes = int_field(obj, "nodes", request.nodes);
  request.gear = int_field(obj, "gear", request.gear);
  request.rep = int_field(obj, "rep", request.rep);
  request.repeat = int_field(obj, "repeat", request.repeat);
  request.topology = string_field(obj, "topology", request.topology);
  GEARSIM_REQUIRE(request.nodes > 0, "nodes must be positive");
  GEARSIM_REQUIRE(request.gear > 0, "gear labels are 1-based");
  GEARSIM_REQUIRE(request.rep >= 0, "rep must be non-negative");
  GEARSIM_REQUIRE(request.repeat > 0, "repeat must be positive");
  if (!request.topology.empty()) {
    // Canonicalize (and validate) the spec so queries that spell the
    // same shape differently coalesce on one runner and cache key.
    request.topology = net::to_spec(net::parse_topology(request.topology));
    if (request.topology == "flat") request.topology.clear();
  }
  return request;
}

std::string render_request(const Request& request) {
  // All present fields always render (sorted keys): a request's
  // canonical line is unique, which keeps logs and tests diffable.
  // `topology` renders only when set, so every pre-topology request
  // line is preserved byte for byte.
  return "{\"cluster\":" + json::jstr(request.cluster) +
         ",\"gear\":" + std::to_string(request.gear) +
         ",\"nodes\":" + std::to_string(request.nodes) +
         ",\"rep\":" + std::to_string(request.rep) +
         ",\"repeat\":" + std::to_string(request.repeat) +
         (request.topology.empty()
              ? std::string()
              : ",\"topology\":" + json::jstr(request.topology)) +
         ",\"type\":" + json::jstr(request.type) +
         ",\"workload\":" + json::jstr(request.workload) + "}";
}

std::string run_response(const Request& request,
                         const cluster::RunResult& result) {
  return "{\"cluster\":" + json::jstr(request.cluster) +
         ",\"gear\":" + std::to_string(request.gear) +
         ",\"nodes\":" + std::to_string(request.nodes) +
         ",\"rep\":" + std::to_string(request.rep) +
         ",\"results\":[" + exec::to_json(result) +
         "],\"status\":\"ok\"" +
         (request.topology.empty()
              ? std::string()
              : ",\"topology\":" + json::jstr(request.topology)) +
         ",\"type\":\"run\",\"workload\":" + json::jstr(request.workload) +
         "}";
}

std::string sweep_response(const Request& request,
                           const std::vector<cluster::RunResult>& results) {
  std::string body;
  for (const cluster::RunResult& r : results) {
    if (!body.empty()) body += ',';
    body += exec::to_json(r);
  }
  return "{\"cluster\":" + json::jstr(request.cluster) +
         ",\"nodes\":" + std::to_string(request.nodes) +
         ",\"repeat\":" + std::to_string(request.repeat) + ",\"results\":[" +
         body + "],\"status\":\"ok\"" +
         (request.topology.empty()
              ? std::string()
              : ",\"topology\":" + json::jstr(request.topology)) +
         ",\"type\":\"sweep\",\"workload\":" + json::jstr(request.workload) +
         "}";
}

std::string race_response(const Request& request,
                          const policy::Evaluation& eval) {
  std::string statics;
  for (const cluster::RunResult& r : eval.static_runs) {
    if (!statics.empty()) statics += ',';
    statics += exec::to_json(r);
  }
  std::string policies;
  for (const policy::PolicyRow& row : eval.policies) {
    if (!policies.empty()) policies += ',';
    policies += "{\"name\":" + json::jstr(row.name) +
                ",\"result\":" + exec::to_json(row.result) +
                ",\"signature\":" + json::jstr(row.signature) + "}";
  }
  return "{\"cluster\":" + json::jstr(request.cluster) +
         ",\"nodes\":" + std::to_string(request.nodes) + ",\"policies\":[" +
         policies + "],\"static\":[" + statics + "],\"status\":\"ok\"" +
         (request.topology.empty()
              ? std::string()
              : ",\"topology\":" + json::jstr(request.topology)) +
         ",\"type\":\"race\",\"workload\":" + json::jstr(request.workload) +
         "}";
}

std::string shutdown_response() {
  return "{\"status\":\"ok\",\"type\":\"shutdown\"}";
}

std::string rejected_response(int retry_after_ms) {
  return "{\"retry_after_ms\":" + std::to_string(retry_after_ms) +
         ",\"status\":\"rejected\"}";
}

std::string error_response(std::string_view message) {
  return "{\"error\":" + json::jstr(message) + ",\"status\":\"error\"}";
}

std::vector<cluster::RunResult> results_from_response(
    const json::Value& response) {
  GEARSIM_REQUIRE(response.is_object(), "response is not a JSON object");
  const json::Object& obj = response.as_object();
  GEARSIM_REQUIRE(json::field(obj, "status").as_string() == "ok",
                  "response status is not ok");
  const std::string& type = json::field(obj, "type").as_string();
  GEARSIM_REQUIRE(type == "sweep" || type == "run",
                  "response carries no results array");
  std::vector<cluster::RunResult> results;
  for (const json::Value& r : json::field(obj, "results").as_array()) {
    // json::render re-emits the embedded object byte-exactly (numbers
    // keep their raw tokens), so the decode is bit-identical to parsing
    // the daemon's own serialization.
    results.push_back(exec::result_from_json(json::render(r)));
  }
  return results;
}

policy::Evaluation evaluation_from_response(const json::Value& response) {
  const json::Object& obj = ok_payload(response, "race");
  std::vector<cluster::RunResult> statics;
  for (const json::Value& r : json::field(obj, "static").as_array()) {
    statics.push_back(exec::result_from_json(json::render(r)));
  }
  std::vector<policy::PolicyRun> runs;
  for (const json::Value& p : json::field(obj, "policies").as_array()) {
    const json::Object& row = p.as_object();
    policy::PolicyRun run;
    run.name = json::field(row, "name").as_string();
    run.signature = json::field(row, "signature").as_string();
    run.result =
        exec::result_from_json(json::render(json::field(row, "result")));
    runs.push_back(std::move(run));
  }
  const int nodes = json::field(obj, "nodes").as_int();
  return policy::assemble_evaluation(
      json::field(obj, "workload").as_string(), nodes, std::move(statics),
      std::move(runs));
}

}  // namespace gearsim::serve
