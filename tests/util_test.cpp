// Unit tests for src/util: units, statistics, RNG, tables, CSV quoting,
// the failpoint registry and the FNV-1a word fold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace gearsim {
namespace {

// --- FNV-1a word fold --------------------------------------------------------

/// fnv1a_mix as a plain loop over all eight bytes, the reference its
/// short path for small words must match.
std::uint64_t mix_bytewise(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xffU;
    h *= util::kFnv1aPrime;
    v >>= 8;
  }
  return h;
}

TEST(Fnv1aMix, MatchesTheByteLoopOnEitherSideOfTheShortPath) {
  const std::uint64_t words[] = {0,
                                 1,
                                 (std::uint64_t{1} << 24) - 1,
                                 std::uint64_t{1} << 24,
                                 (std::uint64_t{1} << 39) - 1,
                                 ~std::uint64_t{0}};
  for (const std::uint64_t v : words) {
    EXPECT_EQ(util::fnv1a_mix(util::kFnv1aOffset, v),
              mix_bytewise(util::kFnv1aOffset, v))
        << v;
  }
  Rng rng(2024);
  std::uint64_t h = util::kFnv1aOffset;
  std::uint64_t reference = h;
  for (int i = 0; i < 10000; ++i) {
    // Random words of every width, so half land below 2^24.
    const std::uint64_t v = rng() >> rng.below(64);
    h = util::fnv1a_mix(h, v);
    reference = mix_bytewise(reference, v);
    ASSERT_EQ(h, reference) << "word " << i << " = " << v;
  }
  static_assert(util::fnv1a_mix(util::kFnv1aOffset, 5) ==
                util::fnv1a(std::string_view("\x05\0\0\0\0\0\0\0", 8)));
}

// --- units -------------------------------------------------------------------

TEST(Units, ArithmeticWithinAUnit) {
  const Seconds a = seconds(2.0);
  const Seconds b = seconds(0.5);
  EXPECT_DOUBLE_EQ((a + b).value(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
  EXPECT_DOUBLE_EQ((a * 3.0).value(), 6.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 0.5);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Joules e = watts(100.0) * seconds(3.0);
  EXPECT_DOUBLE_EQ(e.value(), 300.0);
  EXPECT_DOUBLE_EQ((e / seconds(3.0)).value(), 100.0);
  EXPECT_DOUBLE_EQ((e / watts(100.0)).value(), 3.0);
}

TEST(Units, CyclesOverFrequency) {
  EXPECT_DOUBLE_EQ(cycles_over(2e9, gigahertz(2.0)).value(), 1.0);
}

TEST(Units, Comparisons) {
  EXPECT_LT(seconds(1.0), seconds(2.0));
  EXPECT_GE(watts(5.0), watts(5.0));
  EXPECT_TRUE(near(seconds(1.0), seconds(1.0 + 1e-12), 1e-9));
  EXPECT_FALSE(near(seconds(1.0), seconds(1.1), 1e-3));
}

TEST(Units, ConvenienceConstructors) {
  EXPECT_DOUBLE_EQ(milliseconds(1.5).value(), 1.5e-3);
  EXPECT_DOUBLE_EQ(microseconds(2.0).value(), 2e-6);
  EXPECT_DOUBLE_EQ(nanoseconds(3.0).value(), 3e-9);
  EXPECT_DOUBLE_EQ(megahertz(1800).value(), 1.8e9);
  EXPECT_EQ(kilobytes(2), Bytes{2048});
  EXPECT_EQ(megabytes(1), Bytes{1048576});
}

// --- RunningStats -------------------------------------------------------------

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW((void)s.mean(), ContractError);
  EXPECT_THROW((void)s.min(), ContractError);
}

// --- linear fits ---------------------------------------------------------------

TEST(FitLinear, ExactLine) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f.at(10.0), 21.0, 1e-9);
}

TEST(FitLinear, NoisyLineHasHighR2) {
  const std::vector<double> x = {1, 2, 3, 4, 5, 6};
  const std::vector<double> y = {2.1, 3.9, 6.2, 7.8, 10.1, 11.9};
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 0.1);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(FitLinear, StandardErrors) {
  // y = 2 + 3x with unit-ish residuals at x = 0..4.
  const std::vector<double> x = {0, 1, 2, 3, 4};
  const std::vector<double> y = {2.1, 4.8, 8.2, 10.9, 14.1};
  const LinearFit f = fit_linear(x, y);
  // Analytic OLS: sigma^2 = RSS/(n-2); Sxx = 10.
  const double sigma2 = f.rss / 3.0;
  EXPECT_NEAR(f.stderr_slope, std::sqrt(sigma2 / 10.0), 1e-12);
  EXPECT_NEAR(f.stderr_intercept,
              std::sqrt(sigma2 * (1.0 / 5.0 + 4.0 / 10.0)), 1e-12);
  EXPECT_GT(f.prediction_stderr(10.0), f.prediction_stderr(1.0));
}

TEST(FitLinear, PerfectFitHasZeroStandardErrors) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {3, 5, 7, 9};
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.stderr_slope, 0.0, 1e-9);
  EXPECT_NEAR(f.stderr_intercept, 0.0, 1e-9);
}

TEST(FitConstant, StandardErrorIsSemOfMean) {
  const std::vector<double> y = {4.0, 6.0, 5.0, 5.0};
  const LinearFit f = fit_constant(y);
  // SEM = stddev / sqrt(n) with stddev^2 = RSS/(n-1).
  EXPECT_NEAR(f.stderr_intercept, std::sqrt((f.rss / 3.0) / 4.0), 1e-12);
}

TEST(FitLinear, RejectsTooFewPoints) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(fit_linear(one, one), ContractError);
}

TEST(FitConstant, MeanAndResiduals) {
  const std::vector<double> y = {4.0, 6.0};
  const LinearFit f = fit_constant(y);
  EXPECT_DOUBLE_EQ(f.intercept, 5.0);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_NEAR(f.rss, 2.0, 1e-12);
}

// --- shape classification -------------------------------------------------------

TEST(ShapeFit, BasisValues) {
  EXPECT_DOUBLE_EQ(shape_basis(ScalingShape::kConstant, 7.0), 0.0);
  EXPECT_DOUBLE_EQ(shape_basis(ScalingShape::kLogarithmic, std::exp(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(shape_basis(ScalingShape::kLinear, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(shape_basis(ScalingShape::kQuadratic, 3.0), 9.0);
}

TEST(ClassifyShape, PicksQuadratic) {
  const std::vector<double> x = {2, 4, 8, 16};
  std::vector<double> y;
  for (double xi : x) y.push_back(1.0 + 0.5 * xi * xi);
  const auto fits = classify_shape(x, y);
  EXPECT_EQ(fits.front().shape, ScalingShape::kQuadratic);
  EXPECT_NEAR(fits.front().a, 1.0, 1e-6);
  EXPECT_NEAR(fits.front().b, 0.5, 1e-9);
}

TEST(ClassifyShape, PicksLogarithmic) {
  const std::vector<double> x = {2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 + 2.0 * std::log(xi));
  const auto fits = classify_shape(x, y);
  EXPECT_EQ(fits.front().shape, ScalingShape::kLogarithmic);
}

TEST(ClassifyShape, PicksLinear) {
  const std::vector<double> x = {2, 4, 8, 16};
  std::vector<double> y;
  for (double xi : x) y.push_back(1.0 + 4.0 * xi);
  const auto fits = classify_shape(x, y);
  EXPECT_EQ(fits.front().shape, ScalingShape::kLinear);
}

TEST(ClassifyShape, ParsimonyPrefersConstantOnFlatData) {
  const std::vector<double> x = {2, 4, 8, 16};
  const std::vector<double> y = {5.01, 4.99, 5.02, 4.98};
  const auto fits = classify_shape(x, y);
  EXPECT_EQ(fits.front().shape, ScalingShape::kConstant);
  EXPECT_NEAR(fits.front().a, 5.0, 0.01);
}

TEST(ClassifyShape, ReturnsAllFourRanked) {
  const std::vector<double> x = {2, 4, 8};
  const std::vector<double> y = {1, 2, 3};
  const auto fits = classify_shape(x, y);
  EXPECT_EQ(fits.size(), 4u);
  for (std::size_t i = 1; i < fits.size(); ++i) {
    if (fits.front().shape == ScalingShape::kConstant) continue;
    EXPECT_LE(fits[i - 1].rss, fits[i].rss + 1e-12);
  }
}

TEST(ClassifyShape, NeedsThreePoints) {
  const std::vector<double> x = {2, 4};
  const std::vector<double> y = {1, 2};
  EXPECT_THROW(classify_shape(x, y), ContractError);
}

// --- RNG ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, BelowIsUnbiasedAndInRange) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[r.below(10)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 350);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.08);
  EXPECT_NEAR(s.stddev(), 2.0, 0.08);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng base(42);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkOfForkStreamsStayDistinct) {
  // The sweep executor derives per-point streams as fork(fork(...)): a
  // two-level derivation must not alias a one-level one or a sibling.
  Rng base(42);
  Rng aa = base.fork(0).fork(0);
  Rng ab = base.fork(0).fork(1);
  Rng ba = base.fork(1).fork(0);
  Rng a = base.fork(0);
  const std::uint64_t first[] = {aa(), ab(), ba(), a()};
  std::set<std::uint64_t> distinct(std::begin(first), std::end(first));
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(Rng, ForkStreamsDoNotCollideAcrossAWideRange) {
  // First draw of 4096 sibling forks: all distinct (a collision would
  // make two sweep points share randomness).
  Rng base(7);
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    seen.insert(base.fork(s)());
  }
  EXPECT_EQ(seen.size(), 4096u);
}

// --- tables ---------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "20.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Numeric cells right-align: "20.50" ends right before " |".
  EXPECT_NE(s.find(" 20.50 |"), std::string::npos);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"a", "b"});
  t.add_row({"x,y", "plain"});
  t.add_row({"with \"quote\"", "z"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ContractError);
}

TEST(Formatting, FixedAndPercent) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.095), "+9.5%");
  EXPECT_EQ(fmt_percent(-0.2), "-20.0%");
}

// --- CSV quoting -------------------------------------------------------------

TEST(Csv, PlainFieldsPassThroughUnquoted) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("3.14"), "3.14");
}

TEST(Csv, SpecialCharactersForceQuoting) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rhere"), "\"cr\rhere\"");
}

TEST(Csv, ParseInvertsEscape) {
  const std::vector<std::string> fields = {"plain", "a,b", "say \"hi\"",
                                           "multi\nline", ""};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) line += ',';
    line += csv_escape(fields[i]);
  }
  EXPECT_EQ(parse_csv_line(line), fields);
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  EXPECT_THROW((void)parse_csv_line("\"open"), ContractError);
}

// --- failpoints --------------------------------------------------------------

TEST(Failpoint, DisarmedIsSilentAndCheap) {
  util::Failpoints registry;
  EXPECT_FALSE(registry.hit("nothing.armed").has_value());
  EXPECT_EQ(registry.armed_count(), 0u);
  EXPECT_FALSE(util::failpoint("tests.not.armed").has_value());
}

TEST(Failpoint, FiresOnceByDefaultAndReturnsArg) {
  util::Failpoints registry;
  util::FailpointSpec spec;
  spec.arg = 42;
  registry.arm("tests.once", spec);
  EXPECT_TRUE(registry.armed("tests.once"));
  const auto first = registry.hit("tests.once");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 42);
  EXPECT_FALSE(registry.hit("tests.once").has_value());  // times=1 spent.
  registry.disarm("tests.once");
  EXPECT_FALSE(registry.armed("tests.once"));
}

TEST(Failpoint, SkipTimesAndEverySchedule) {
  util::Failpoints registry;
  util::FailpointSpec spec;
  spec.skip = 2;   // Let visits 1-2 pass.
  spec.times = 3;  // Fire at most 3 times.
  spec.every = 2;  // ... on every 2nd eligible visit.
  registry.arm("tests.sched", spec);
  std::vector<bool> fired;
  for (int visit = 1; visit <= 10; ++visit) {
    fired.push_back(registry.hit("tests.sched").has_value());
  }
  // Visits:   1  2  3  4  5  6  7  8  9  10
  // Eligible:       1  2  3  4  5  6  7  8   (every 2nd fires, 3 max)
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, true, false,
                                      true, false, false, false}));
}

TEST(Failpoint, IndexStreamsCountIndependently) {
  util::Failpoints registry;
  util::FailpointSpec spec;
  spec.indices = {3, 7};
  registry.arm("tests.indexed", spec);
  EXPECT_FALSE(registry.hit("tests.indexed", 0).has_value());
  EXPECT_TRUE(registry.hit("tests.indexed", 3).has_value());
  EXPECT_FALSE(registry.hit("tests.indexed", 3).has_value());  // Spent.
  EXPECT_TRUE(registry.hit("tests.indexed", 7).has_value());   // Own budget.
  EXPECT_FALSE(registry.hit("tests.indexed", 5).has_value());
}

TEST(Failpoint, ArmFromStringParsesFullGrammar) {
  util::Failpoints registry;
  registry.arm_from_string("tests.a;tests.b=1:2:99;tests.c@4,9=0:-1");
  EXPECT_TRUE(registry.armed("tests.a"));
  ASSERT_TRUE(registry.hit("tests.a").has_value());

  EXPECT_FALSE(registry.hit("tests.b").has_value());  // skip=1
  const auto b = registry.hit("tests.b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 99);                                  // arg
  EXPECT_TRUE(registry.hit("tests.b").has_value());   // times=2
  EXPECT_FALSE(registry.hit("tests.b").has_value());

  EXPECT_FALSE(registry.hit("tests.c", 3).has_value());
  EXPECT_TRUE(registry.hit("tests.c", 4).has_value());
  EXPECT_TRUE(registry.hit("tests.c", 4).has_value());  // times=-1: unlimited
  EXPECT_TRUE(registry.hit("tests.c", 9).has_value());

  registry.clear();
  EXPECT_EQ(registry.armed_count(), 0u);
}

TEST(Failpoint, ArmFromStringRejectsMalformedInput) {
  util::Failpoints registry;
  EXPECT_THROW(registry.arm_from_string("tests.bad=abc"), ContractError);
  EXPECT_THROW(registry.arm_from_string("tests.bad=-1"), ContractError);
  EXPECT_THROW(registry.arm_from_string("tests.bad=0:1:0:0"), ContractError);
  EXPECT_THROW(registry.arm_from_string("tests.bad@x"), ContractError);
  EXPECT_THROW(registry.arm_from_string("=1"), ContractError);
}

TEST(Failpoint, ScopedFailpointDisarmsOnExit) {
  {
    const util::ScopedFailpoint fp("tests.scoped", {});
    EXPECT_TRUE(util::Failpoints::global().armed("tests.scoped"));
  }
  EXPECT_FALSE(util::Failpoints::global().armed("tests.scoped"));
  EXPECT_FALSE(util::failpoint("tests.scoped").has_value());
}

// --- misc helpers ------------------------------------------------------------------

TEST(Helpers, MeanAndRelDiff) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.0);
  EXPECT_DOUBLE_EQ(rel_diff(110.0, 100.0), 0.1);
  EXPECT_THROW(rel_diff(1.0, 0.0), ContractError);
}

}  // namespace
}  // namespace gearsim
