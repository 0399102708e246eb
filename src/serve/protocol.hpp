// Wire protocol of the what-if query service.
//
// One request per line, one response per line, both canonical
// single-line JSON (util/json dialect: sorted keys, round-trip doubles).
// Request types:
//
//   run      one (workload, nodes, gear, rep) point
//   sweep    all gears x `repeat` reps at one node count
//   race     the adaptive-policy roster vs the static sweep
//   stats    daemon counters (cache, dedup, admission, shards, latency)
//   shutdown ask the daemon to exit after responding
//
// Responses carry "status": "ok" (typed payload), "rejected" (admission
// backpressure; "retry_after_ms" says when to come back), or "error"
// (validation or simulation failure; "error" says why).  Every result
// object in an ok payload is exec::to_json(RunResult) verbatim — the
// cache's bit-identity fingerprint — so a served answer can be diffed
// byte-for-byte against a cold `gearsim sweep` of the same point.
// See docs/SERVICE.md.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cluster/experiment.hpp"
#include "policy/evaluator.hpp"
#include "util/json.hpp"

namespace gearsim::serve {

/// One parsed query.  Defaults match the CLI's (`gearsim sweep` etc.).
struct Request {
  std::string type;               ///< run | sweep | race | stats | shutdown
  std::string cluster = "athlon";
  std::string workload = "CG";
  int nodes = 4;
  int gear = 1;    ///< run only (1-based paper label).
  int rep = 0;     ///< run only (repetition index).
  int repeat = 1;  ///< sweep only (reps per gear).
  /// Routing topology spec (net/topology.hpp grammar), canonicalized at
  /// parse time; empty means the cluster preset's flat network.  Part of
  /// the simulated config, so it shards the daemon's runner map and
  /// the cache keys exactly like the CLI's --topology flag.
  std::string topology;
};

/// Parse a request line; throws ContractError on malformed JSON, an
/// unknown type, or non-positive coordinates.
[[nodiscard]] Request parse_request(std::string_view line);

/// Canonical request line (inverse of parse_request; no trailing \n).
[[nodiscard]] std::string render_request(const Request& request);

/// Ok responses.  Result payloads embed only deterministic run content —
/// no timestamps, hostnames, or wall-clock provenance — so identical
/// queries produce byte-identical responses across daemon restarts,
/// cache states, and dedup coalescing.
[[nodiscard]] std::string run_response(const Request& request,
                                       const cluster::RunResult& result);
[[nodiscard]] std::string sweep_response(
    const Request& request, const std::vector<cluster::RunResult>& results);
[[nodiscard]] std::string race_response(const Request& request,
                                        const policy::Evaluation& eval);
[[nodiscard]] std::string shutdown_response();

/// Admission backpressure: come back in `retry_after_ms`.
[[nodiscard]] std::string rejected_response(int retry_after_ms);
[[nodiscard]] std::string error_response(std::string_view message);

/// Decode an ok sweep (or run) response's results, in gear-major request
/// order.  Throws ContractError when the response is not an ok payload
/// of that shape.
[[nodiscard]] std::vector<cluster::RunResult> results_from_response(
    const json::Value& response);

/// Reassemble a race response into the same Evaluation record
/// policy::PolicyEvaluator::evaluate computes locally (deltas and
/// frontier markers are re-derived via policy::assemble_evaluation, so
/// remote and local tables agree to the byte).
[[nodiscard]] policy::Evaluation evaluation_from_response(
    const json::Value& response);

}  // namespace gearsim::serve
