// MetricsRegistry: counters, gauges and fixed-bucket histograms for the
// simulator's own introspection.
//
// Two metric domains with different guarantees:
//
//  * kSim — deterministic simulation-domain facts (events dispatched,
//    cache hits, gear shifts, rework seconds).  Values are pure functions
//    of the run's inputs: bit-identical across reruns and across
//    GEARSIM_SWEEP_JOBS worker counts.  Achieved structurally, not with
//    atomics: each simulation point owns its registry (single-threaded by
//    the engine's one-thread-at-a-time discipline) and the sweep layer
//    merges per-point snapshots in request order.
//  * kWall — wall-clock profiling (worker queue-wait, bench phase
//    timings).  Off by default; when disabled, registration returns
//    handles whose operations are a null-check and the steady_clock is
//    never read, so the baseline run is bit-identical to a build without
//    the instrumentation.  Never part of the deterministic manifest core.
//
// The simulation layers (engine, network, policies) count natively and
// never see a registry; cluster::ExperimentRunner::run publishes their
// totals into the run's registry once, after a run that returns a
// result.  A run that throws publishes nothing.  Handles are stable for
// the registry's lifetime (node-based storage).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gearsim::json {
struct Value;  // util/json.hpp
}

namespace gearsim::obs {

/// Which guarantee a metric carries (see file header).
enum class Domain { kSim, kWall };

/// Monotonic integer count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;

  friend class MetricsRegistry;
};

/// Point-in-time double.  kMax gauges keep the high-water mark (and merge
/// by max); kLast gauges keep the latest write (and merge by overwrite).
class Gauge {
 public:
  enum class Kind { kMax, kLast };

  void set(double v) {
    if (kind_ == Kind::kMax) {
      if (!written_ || v > value_) value_ = v;
    } else {
      value_ = v;
    }
    written_ = true;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  explicit Gauge(Kind kind) : kind_(kind) {}

  Kind kind_;
  double value_ = 0.0;
  bool written_ = false;

  friend class MetricsRegistry;
};

/// Fixed-bucket histogram.  `edges` are the upper bounds of the first
/// N buckets: observe(v) lands in the first bucket whose edge satisfies
/// v <= edge, or in the implicit overflow bucket (buckets().size() ==
/// edges.size() + 1).  Also accumulates count and sum for mean queries.
class Histogram {
 public:
  void observe(double v);
  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  explicit Histogram(std::vector<double> edges);

  std::vector<double> edges_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;

  friend class MetricsRegistry;
};

/// One metric's frozen value; `MetricsSnapshot` is the canonical,
/// name-sorted view a manifest serializes and the sweep layer merges.
struct MetricSnapshot {
  enum class Kind { kCounter, kGaugeMax, kGaugeLast, kHistogram };

  Kind kind = Kind::kCounter;
  Domain domain = Domain::kSim;
  std::uint64_t count = 0;     ///< Counter value / histogram count.
  double value = 0.0;          ///< Gauge value / histogram sum.
  std::vector<double> edges;   ///< Histogram only.
  std::vector<std::uint64_t> buckets;
};

struct MetricsSnapshot {
  std::map<std::string, MetricSnapshot> metrics;

  [[nodiscard]] bool empty() const { return metrics.empty(); }
  /// Fold `other` in: counters and histogram buckets add, kMax gauges
  /// max, kLast gauges overwrite.  Kind/shape mismatches throw
  /// ContractError.  Merging in request order keeps sim-domain values
  /// deterministic for any worker count.
  void merge(const MetricsSnapshot& other);
  /// Canonical single-line JSON object keyed by metric name (sorted).
  /// `domain` filters: kSim emits only deterministic metrics.
  [[nodiscard]] std::string to_json(Domain domain) const;
  [[nodiscard]] std::string to_json() const;  ///< Both domains.
  /// Inverse of to_json(); throws ContractError on malformed input.
  static MetricsSnapshot from_json(std::string_view text);
};

/// Fold one parsed `{name: {kind, ...}}` JSON section into `snap` under
/// `domain`.  Shared by MetricsSnapshot::from_json and the manifest
/// parser, so both read the exact dialect to_json(Domain) emits.
void merge_metrics_section(const json::Value& section, Domain domain,
                           MetricsSnapshot& snap);

class MetricsRegistry {
 public:
  /// `wall_profiling` opts into the wall-clock domain; sim-domain metrics
  /// are always recorded on a live registry.
  explicit MetricsRegistry(bool wall_profiling = false)
      : wall_profiling_(wall_profiling) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool wall_profiling() const { return wall_profiling_; }

  /// Find-or-create.  References are stable for the registry's lifetime;
  /// re-registration with a different kind/shape throws ContractError.
  Counter& counter(std::string_view name, Domain domain = Domain::kSim);
  Gauge& gauge(std::string_view name, Gauge::Kind kind = Gauge::Kind::kMax,
               Domain domain = Domain::kSim);
  Histogram& histogram(std::string_view name, std::vector<double> edges,
                       Domain domain = Domain::kSim);

  /// Wall-domain registration that respects the profiling switch: null
  /// when wall profiling is off, so call sites degrade to a null-check.
  [[nodiscard]] Counter* wall_counter(std::string_view name);
  [[nodiscard]] Gauge* wall_gauge(std::string_view name,
                                  Gauge::Kind kind = Gauge::Kind::kMax);
  [[nodiscard]] Histogram* wall_histogram(std::string_view name,
                                          std::vector<double> edges);

  /// Freeze every metric into the canonical sorted snapshot.
  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Fold a snapshot into the live registry (see MetricsSnapshot::merge);
  /// metrics not yet registered are created with the snapshot's shape.
  void merge(const MetricsSnapshot& other);

 private:
  struct Entry {
    MetricSnapshot::Kind kind;
    Domain domain;
    // Node-based storage: exactly one of these is live per entry.  Kept
    // as values in a std::map keyed by name, which never invalidates
    // references on insert.
    Counter counter;
    Gauge gauge{Gauge::Kind::kMax};
    Histogram histogram{std::vector<double>{}};
  };

  Entry& entry(std::string_view name, MetricSnapshot::Kind kind,
               Domain domain);

  bool wall_profiling_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// RAII wall-clock timer: adds the elapsed seconds to a histogram on
/// destruction.  A null histogram (profiling off) never reads the clock —
/// the disabled path costs one branch.
class ScopedWallTimer {
 public:
  explicit ScopedWallTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedWallTimer() {
    if (h_ != nullptr) {
      h_->observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }
  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_{};
};

/// RAII sim-time timer over an arbitrary clock callable (e.g. the
/// engine's now()).  Deterministic: belongs to the kSim domain.
template <typename Clock>
class ScopedSimTimer {
 public:
  ScopedSimTimer(Histogram* h, Clock clock)
      : h_(h), clock_(std::move(clock)) {
    if (h_ != nullptr) start_ = clock_();
  }
  ~ScopedSimTimer() {
    if (h_ != nullptr) h_->observe(clock_() - start_);
  }
  ScopedSimTimer(const ScopedSimTimer&) = delete;
  ScopedSimTimer& operator=(const ScopedSimTimer&) = delete;

 private:
  Histogram* h_;
  Clock clock_;
  double start_ = 0.0;
};

}  // namespace gearsim::obs
