// Tests for the observability layer: registry semantics (counters,
// gauges, histogram bucket edges, domain split), snapshot merge and JSON
// round trips, manifest round trips, the bench-regression comparator,
// and the two determinism contracts — metrics-disabled runs are
// bit-identical to uninstrumented ones, and sim-domain metrics are
// bit-identical across reruns and worker counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "exec/result_io.hpp"
#include "exec/sweep_runner.hpp"
#include "obs/compare.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "workloads/jacobi.hpp"

namespace gearsim::obs {
namespace {

// ---- registry semantics -----------------------------------------------------

TEST(MetricsRegistryTest, CounterFindOrCreateAndAdd) {
  MetricsRegistry reg;
  reg.counter("a").add();
  reg.counter("a").add(3);
  EXPECT_EQ(reg.counter("a").value(), 4u);
  EXPECT_EQ(reg.counter("b").value(), 0u);
}

TEST(MetricsRegistryTest, GaugeKinds) {
  MetricsRegistry reg;
  Gauge& hi = reg.gauge("hi", Gauge::Kind::kMax);
  hi.set(2.0);
  hi.set(1.0);
  EXPECT_EQ(hi.value(), 2.0);
  Gauge& last = reg.gauge("last", Gauge::Kind::kLast);
  last.set(2.0);
  last.set(1.0);
  EXPECT_EQ(last.value(), 1.0);
}

TEST(MetricsRegistryTest, HistogramBucketEdgesAreUpperBoundsInclusive) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 10.0});
  h.observe(0.5);   // <= 1.0 -> bucket 0
  h.observe(1.0);   // == edge -> bucket 0 (inclusive upper bound)
  h.observe(1.001); // -> bucket 1
  h.observe(10.0);  // == edge -> bucket 1
  h.observe(11.0);  // -> overflow
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 11.0);
}

TEST(MetricsRegistryTest, KindAndShapeMismatchesThrow) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), ContractError);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), ContractError);
}

TEST(MetricsRegistryTest, WallHandlesAreNullWhenProfilingOff) {
  MetricsRegistry off(false);
  EXPECT_EQ(off.wall_counter("w"), nullptr);
  EXPECT_EQ(off.wall_gauge("w"), nullptr);
  EXPECT_EQ(off.wall_histogram("w", {1.0}), nullptr);
  EXPECT_TRUE(off.snapshot().empty());

  MetricsRegistry on(true);
  ASSERT_NE(on.wall_counter("w"), nullptr);
  on.wall_counter("w")->add();
  const MetricsSnapshot snap = on.snapshot();
  ASSERT_EQ(snap.metrics.count("w"), 1u);
  EXPECT_EQ(snap.metrics.at("w").domain, Domain::kWall);
  // The sim-domain serialization must not leak wall metrics.
  EXPECT_EQ(snap.to_json(Domain::kSim), "{}");
}

// ---- snapshot merge and JSON ------------------------------------------------

TEST(MetricsSnapshotTest, MergeSemanticsPerKind) {
  MetricsRegistry a;
  a.counter("c").add(2);
  a.gauge("max", Gauge::Kind::kMax).set(5.0);
  a.gauge("last", Gauge::Kind::kLast).set(5.0);
  a.histogram("h", {1.0}).observe(0.5);

  MetricsRegistry b;
  b.counter("c").add(3);
  b.gauge("max", Gauge::Kind::kMax).set(3.0);
  b.gauge("last", Gauge::Kind::kLast).set(3.0);
  b.histogram("h", {1.0}).observe(2.0);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.metrics.at("c").count, 5u);
  EXPECT_EQ(merged.metrics.at("max").value, 5.0);   // max wins
  EXPECT_EQ(merged.metrics.at("last").value, 3.0);  // latest wins
  EXPECT_EQ(merged.metrics.at("h").buckets, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(merged.metrics.at("h").count, 2u);
}

TEST(MetricsSnapshotTest, MergeShapeMismatchThrows) {
  MetricsRegistry a;
  a.histogram("h", {1.0});
  MetricsRegistry b;
  b.histogram("h", {2.0});
  MetricsSnapshot snap = a.snapshot();
  EXPECT_THROW(snap.merge(b.snapshot()), ContractError);
}

TEST(MetricsSnapshotTest, JsonRoundTrip) {
  MetricsRegistry reg(true);
  reg.counter("events").add(42);
  reg.gauge("queue", Gauge::Kind::kMax).set(17.0);
  reg.histogram("rework", {0.1, 1.0}).observe(0.05);
  reg.wall_counter("wall.polls")->add(7);

  const MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot back = MetricsSnapshot::from_json(snap.to_json());
  EXPECT_EQ(back.to_json(), snap.to_json());
  // Round trip preserves the domain split.
  EXPECT_EQ(back.to_json(Domain::kSim), snap.to_json(Domain::kSim));
  EXPECT_EQ(back.metrics.at("wall.polls").domain, Domain::kWall);
}

// ---- manifests --------------------------------------------------------------

TEST(ManifestTest, JsonRoundTrip) {
  RunManifest m;
  m.tool = "gearsim sweep";
  m.cache_key_format = 2;
  m.add_info("workload", "CG");
  m.add_info("nodes", "4");
  m.wall_seconds = 1.25;
  MetricsRegistry reg;
  reg.counter("cluster.runs").add(6);
  m.metrics = reg.snapshot();

  const RunManifest back = RunManifest::from_json(m.to_json());
  EXPECT_EQ(back.to_json(), m.to_json());
  EXPECT_EQ(back.tool, "gearsim sweep");
  EXPECT_EQ(back.cache_key_format, 2);
  EXPECT_EQ(back.metrics.metrics.at("cluster.runs").count, 6u);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 1.25);
}

TEST(ManifestTest, DeterministicCoreExcludesWallClock) {
  RunManifest m;
  m.tool = "t";
  MetricsRegistry reg(true);
  reg.counter("sim.c").add();
  reg.wall_counter("wall.c")->add();
  m.metrics = reg.snapshot();
  m.wall_seconds = 3.0;

  const std::string core = m.deterministic_json();
  EXPECT_NE(core.find("sim.c"), std::string::npos);
  EXPECT_EQ(core.find("wall.c"), std::string::npos);
  EXPECT_EQ(core.find("wall_seconds"), std::string::npos);

  // Two runs that differ only in wall time share one fingerprint.
  RunManifest slower = m;
  slower.wall_seconds = 30.0;
  EXPECT_EQ(slower.deterministic_json(), core);
  EXPECT_NE(slower.to_json(), m.to_json());
}

TEST(ManifestTest, DuplicateInfoKeysRejected) {
  RunManifest m;
  m.tool = "t";
  m.add_info("k", "1");
  m.add_info("k", "2");
  EXPECT_THROW(m.to_json(), ContractError);
}

// ---- the regression comparator ----------------------------------------------

std::string result_doc(double wall_s, double energy_j) {
  return "{\"schema\":\"gearsim-bench/1\",\"name\":\"demo\",\"info\":{},"
         "\"metrics\":{\"time_s\":" + std::to_string(wall_s) +
         ",\"energy_j\":" + std::to_string(energy_j) +
         "},\"wall\":{\"seconds\":1.0,\"metrics\":{}}}";
}

TEST(CompareBenchTest, PassesWithinToleranceAndGatesRegressions) {
  const std::string baseline = baseline_from_result(result_doc(10.0, 5.0),
                                                    /*tol_rel=*/0.02);
  // Identical result: clean pass.
  EXPECT_TRUE(compare_bench(baseline, result_doc(10.0, 5.0)).ok());
  // Inside the 2% band: pass.
  EXPECT_TRUE(compare_bench(baseline, result_doc(10.1, 5.0)).ok());
  // The acceptance criterion: an injected 2x slowdown must gate.
  const CompareReport slow = compare_bench(baseline, result_doc(20.0, 5.0));
  EXPECT_FALSE(slow.ok());
  EXPECT_NE(render_report(slow).find("REGRESSION"), std::string::npos);
}

TEST(CompareBenchTest, MissingBaselinedMetricFails) {
  const std::string baseline = baseline_from_result(result_doc(10.0, 5.0),
                                                    0.02);
  const std::string missing =
      "{\"schema\":\"gearsim-bench/1\",\"name\":\"demo\",\"info\":{},"
      "\"metrics\":{\"time_s\":10.0},\"wall\":{\"seconds\":1.0,"
      "\"metrics\":{}}}";
  const CompareReport report = compare_bench(baseline, missing);
  EXPECT_FALSE(report.ok());
}

TEST(CompareBenchTest, ExtraResultMetricsAreUncheckedNotFailed) {
  const std::string baseline =
      "{\"schema\":\"gearsim-bench-baseline/1\",\"name\":\"demo\","
      "\"metrics\":{\"time_s\":{\"value\":10.0,\"tol_rel\":0.02}}}";
  const CompareReport report =
      compare_bench(baseline, result_doc(10.0, 5.0));
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.unchecked.size(), 1u);
  EXPECT_EQ(report.unchecked[0], "energy_j");
}

TEST(CompareBenchTest, DirectionalTolerances) {
  // direction max: improvement (smaller) passes, regression fails.
  const std::string max_baseline =
      "{\"schema\":\"gearsim-bench-baseline/1\",\"name\":\"demo\","
      "\"metrics\":{\"time_s\":{\"value\":10.0,\"tol_rel\":0.02,"
      "\"direction\":\"max\"}}}";
  EXPECT_TRUE(compare_bench(max_baseline, result_doc(5.0, 0.0)).ok());
  EXPECT_FALSE(compare_bench(max_baseline, result_doc(10.5, 0.0)).ok());
  // direction min: growth passes, shrinkage fails.
  const std::string min_baseline =
      "{\"schema\":\"gearsim-bench-baseline/1\",\"name\":\"demo\","
      "\"metrics\":{\"time_s\":{\"value\":10.0,\"tol_rel\":0.02,"
      "\"direction\":\"min\"}}}";
  EXPECT_TRUE(compare_bench(min_baseline, result_doc(20.0, 0.0)).ok());
  EXPECT_FALSE(compare_bench(min_baseline, result_doc(9.0, 0.0)).ok());
}

// ---- determinism contracts --------------------------------------------------

std::vector<exec::SweepPoint> jacobi_points(const workloads::Jacobi& jacobi,
                                            std::size_t gears) {
  std::vector<exec::SweepPoint> points;
  for (int nodes : {1, 2, 4}) {
    for (std::size_t g = 0; g < gears; ++g) {
      points.push_back(exec::SweepPoint{&jacobi, nodes, g, 0});
    }
  }
  return points;
}

TEST(ObsDeterminismTest, RunResultUnchangedByInstrumentation) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const workloads::Jacobi jacobi;

  const cluster::RunResult plain = runner.run(jacobi, 4, cluster::RunOptions{});
  MetricsRegistry reg(true);
  cluster::RunOptions options;
  options.metrics = &reg;
  const cluster::RunResult instrumented = runner.run(jacobi, 4, options);
  // The metrics side channel never perturbs the measurement record.
  EXPECT_EQ(exec::to_json(plain), exec::to_json(instrumented));
  // ...but it did observe the run.
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.metrics.at("cluster.runs").count, 1u);
  EXPECT_GT(snap.metrics.at("sim.engine.events_dispatched").count, 0u);
  EXPECT_GT(snap.metrics.at("net.bytes").count, 0u);
}

TEST(ObsDeterminismTest, SimMetricsBitIdenticalAcrossRerunsAndJobCounts) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const workloads::Jacobi jacobi;
  const auto points = jacobi_points(jacobi, config.gears.size());

  std::vector<std::string> fingerprints;
  for (const int jobs : {1, 1, 4}) {  // Rerun at jobs=1, then fan out.
    MetricsRegistry reg;
    exec::SweepOptions options;
    options.jobs = jobs;
    options.metrics = &reg;
    const exec::SweepRunner runner(config, options);
    (void)runner.run(points);
    fingerprints.push_back(reg.snapshot().to_json(Domain::kSim));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_NE(fingerprints[0], "{}");
}

TEST(ObsDeterminismTest, SweepMetricsCountPointsAndCacheTraffic) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const workloads::Jacobi jacobi;
  const auto points = jacobi_points(jacobi, config.gears.size());

  exec::ResultCache cache;
  MetricsRegistry reg;
  exec::SweepOptions options;
  options.cache = &cache;
  options.metrics = &reg;
  const exec::SweepRunner runner(config, options);
  (void)runner.run(points);
  (void)runner.run(points);  // Second pass: all hits.

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.metrics.at("exec.sweep.points").count, 2 * points.size());
  EXPECT_EQ(snap.metrics.at("exec.cache.misses").count, points.size());
  EXPECT_EQ(snap.metrics.at("exec.cache.hits").count, points.size());
  // A cache hit never re-simulates, so sim volume matches ONE pass: the
  // engine's event count is whatever the misses produced.
  const std::uint64_t events =
      snap.metrics.at("sim.engine.events_dispatched").count;
  MetricsRegistry cold;
  exec::SweepOptions cold_options;
  cold_options.metrics = &cold;
  (void)exec::SweepRunner(config, cold_options).run(points);
  EXPECT_EQ(events,
            cold.snapshot().metrics.at("sim.engine.events_dispatched").count);
}

}  // namespace
}  // namespace gearsim::obs
