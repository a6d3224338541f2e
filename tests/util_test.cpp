#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>

#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/gf2.hpp"
#include "tgcover/util/gf2_elim.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/stamped.hpp"
#include "tgcover/util/stats.hpp"
#include "tgcover/util/table.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc::util {
namespace {

// ---------------------------------------------------------------- Gf2Vector

TEST(Gf2Vector, StartsZero) {
  Gf2Vector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_EQ(v.highest_set_bit(), Gf2Vector::npos);
  EXPECT_EQ(v.lowest_set_bit(), Gf2Vector::npos);
}

TEST(Gf2Vector, SetResetFlipTest) {
  Gf2Vector v(200);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(199);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(199));
  EXPECT_FALSE(v.test(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.reset(63);
  EXPECT_FALSE(v.test(63));
  v.flip(63);
  EXPECT_TRUE(v.test(63));
  v.flip(63);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(Gf2Vector, HighLowBits) {
  Gf2Vector v(300);
  v.set(17);
  v.set(130);
  v.set(255);
  EXPECT_EQ(v.lowest_set_bit(), 17u);
  EXPECT_EQ(v.highest_set_bit(), 255u);
}

TEST(Gf2Vector, XorIsSelfInverse) {
  Gf2Vector a(100);
  Gf2Vector b(100);
  a.set(3);
  a.set(77);
  b.set(77);
  b.set(99);
  Gf2Vector c = a;
  c.xor_assign(b);
  EXPECT_TRUE(c.test(3));
  EXPECT_FALSE(c.test(77));
  EXPECT_TRUE(c.test(99));
  c.xor_assign(b);
  EXPECT_TRUE(c == a);
}

TEST(Gf2Vector, SetBitsEnumeration) {
  Gf2Vector v(128);
  const std::vector<std::size_t> want{0, 1, 63, 64, 65, 127};
  for (const std::size_t i : want) v.set(i);
  EXPECT_EQ(v.set_bits(), want);
}

TEST(Gf2Vector, HashDistinguishesSimpleCases) {
  Gf2Vector a(64);
  Gf2Vector b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  Gf2Vector c(64);
  c.set(1);
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(Gf2Vector, SizeMismatchXorThrows) {
  Gf2Vector a(10);
  Gf2Vector b(11);
  EXPECT_THROW(a.xor_assign(b), tgc::CheckError);
}

// ------------------------------------------------------------ Gf2Eliminator

TEST(Gf2Eliminator, RankOfIndependentRows) {
  Gf2Eliminator elim(8);
  for (std::size_t i = 0; i < 5; ++i) {
    Gf2Vector v(8);
    v.set(i);
    EXPECT_TRUE(elim.insert(std::move(v)));
  }
  EXPECT_EQ(elim.rank(), 5u);
}

TEST(Gf2Eliminator, DetectsDependence) {
  Gf2Eliminator elim(4);
  Gf2Vector a(4);
  a.set(0);
  a.set(1);
  Gf2Vector b(4);
  b.set(1);
  b.set(2);
  Gf2Vector c(4);  // a ^ b
  c.set(0);
  c.set(2);
  EXPECT_TRUE(elim.insert(a));
  EXPECT_TRUE(elim.insert(b));
  EXPECT_FALSE(elim.insert(c));
  EXPECT_EQ(elim.rank(), 2u);
}

TEST(Gf2Eliminator, InSpan) {
  Gf2Eliminator elim(6);
  Gf2Vector a(6);
  a.set(0);
  a.set(1);
  Gf2Vector b(6);
  b.set(2);
  b.set(3);
  elim.insert(a);
  elim.insert(b);
  Gf2Vector q(6);
  q.set(0);
  q.set(1);
  q.set(2);
  q.set(3);
  EXPECT_TRUE(elim.in_span(q));
  q.set(5);
  EXPECT_FALSE(elim.in_span(q));
  EXPECT_TRUE(elim.in_span(Gf2Vector(6)));  // zero vector always in span
}

TEST(Gf2Eliminator, CombinationCertificateReconstructsTarget) {
  // Random-ish generators; verify that the reported combination XORs back to
  // the target exactly.
  Rng rng(42);
  const std::size_t dim = 40;
  const std::size_t gens = 25;
  Gf2Eliminator elim(dim, gens);
  std::vector<Gf2Vector> generators;
  for (std::size_t i = 0; i < gens; ++i) {
    Gf2Vector v(dim);
    for (std::size_t bit = 0; bit < dim; ++bit) {
      if (rng.bernoulli(0.3)) v.set(bit);
    }
    generators.push_back(v);
    elim.insert(std::move(v));
  }
  // A target made of a known subset.
  Gf2Vector target(dim);
  for (const std::size_t i : {0u, 3u, 7u, 11u}) target.xor_assign(generators[i]);
  const auto combo = elim.combination_for(target);
  ASSERT_TRUE(combo.has_value());
  Gf2Vector rebuilt(dim);
  for (const std::size_t idx : *combo) rebuilt.xor_assign(generators[idx]);
  EXPECT_TRUE(rebuilt == target);
}

TEST(Gf2Eliminator, CombinationForOutsideSpanIsNull) {
  Gf2Eliminator elim(4, 4);
  Gf2Vector a(4);
  a.set(0);
  elim.insert(a);
  Gf2Vector q(4);
  q.set(3);
  EXPECT_FALSE(elim.combination_for(q).has_value());
}

TEST(Gf2Eliminator, ChecksWidthAndCapacity) {
  Gf2Eliminator elim(10, 2);
  EXPECT_THROW(elim.insert(Gf2Vector(11)), tgc::CheckError);
  const std::uint32_t too_wide[] = {3, 10};
  EXPECT_THROW(elim.insert(std::span<const std::uint32_t>(too_wide)),
               tgc::CheckError);
  EXPECT_EQ(elim.inserted_count(), 0u);  // rejected rows take no slot

  const std::uint32_t low[] = {3};
  const std::uint32_t high[] = {9, 3};
  EXPECT_TRUE(elim.insert(std::span<const std::uint32_t>(low)));
  EXPECT_TRUE(elim.insert(std::span<const std::uint32_t>(high)));
  EXPECT_THROW(elim.insert(std::span<const std::uint32_t>(low)),
               tgc::CheckError);
  Gf2Vector nine(10);
  nine.set(9);
  EXPECT_EQ(elim.combination_for(nine), (std::vector<std::size_t>{0, 1}));
}

TEST(Gf2Eliminator, ResetForgetsRowsAndReshapes) {
  Gf2Eliminator elim(70);
  Gf2Vector a(70);
  a.set(3);
  a.set(69);
  EXPECT_TRUE(elim.insert(a));
  EXPECT_FALSE(elim.insert(a));
  elim.reset(70);
  EXPECT_EQ(elim.rank(), 0u);
  EXPECT_EQ(elim.inserted_count(), 0u);
  EXPECT_FALSE(elim.in_span(a));
  EXPECT_TRUE(elim.insert(a));  // the old row is gone

  elim.reset(5, 1);
  EXPECT_EQ(elim.dim(), 5u);
  Gf2Vector b(5);
  b.set(4);
  EXPECT_TRUE(elim.insert(b));
  EXPECT_EQ(elim.combination_for(b), std::vector<std::size_t>{0});
  EXPECT_TRUE(elim.reduce(b).is_zero());
}

// -------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.next_below(10)];
  for (const int b : buckets) {
    EXPECT_NEAR(b, draws / 10, draws / 10 * 0.15);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_FALSE(w == v);  // 1/50! chance of false failure
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng a(21);
  Rng b(21);
  (void)a.next_u64();  // parent consumed some entropy
  // fork depends only on the *current* state, so fork streams of equal ids
  // from identical states must agree:
  Rng fa = b.fork(5);
  Rng fb = b.fork(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
  // ...and different ids must differ.
  Rng f1 = b.fork(1);
  Rng f2 = b.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(SplitMix, KnownAvalanche) {
  // Not a golden value test — just structural sanity: nearby inputs produce
  // wildly different outputs.
  const auto a = splitmix64(1);
  const auto b = splitmix64(2);
  EXPECT_NE(a, b);
  EXPECT_GT(__builtin_popcountll(a ^ b), 10);
}

// ------------------------------------------------------------------- Stats

TEST(RunningStat, Moments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(EmpiricalCdf, QuantilesAndFractions) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  EmpiricalCdf cdf(std::move(samples));
  EXPECT_DOUBLE_EQ(cdf.at(50.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(81.0), 0.2);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(-5.0), 1.0);
}

TEST(EmpiricalCdf, EmptySampleIsSafe) {
  EmpiricalCdf cdf({});
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.size(), 0u);
  EXPECT_DOUBLE_EQ(cdf.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1e9), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(-1e9), 0.0);
  EXPECT_TRUE(std::isnan(cdf.quantile(0.5)));
  EXPECT_TRUE(std::isnan(cdf.quantile(1.0)));
}

TEST(EmpiricalCdf, SingleSample) {
  EmpiricalCdf cdf({3.0});
  EXPECT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(2.9), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(3.0), 1.0);
  // Every quantile of a one-point sample is that point, including q small
  // enough that ceil(q*n) rounds to the first (only) order statistic.
  EXPECT_DOUBLE_EQ(cdf.quantile(0.01), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(3.1), 0.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // n-1 denominator is undefined; 0
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

// -------------------------------------------------------------------- Args

TEST(ArgParser, ParsesTypedOptions) {
  const char* argv[] = {"prog", "--nodes", "400", "--gamma", "1.5",
                        "--name", "x",   "--flag"};
  ArgParser args(8, argv);
  EXPECT_EQ(args.get_int("nodes", 100), 400);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 2.0), 1.5);
  EXPECT_EQ(args.get_string("name", "y"), "x");
  EXPECT_TRUE(args.get_flag("flag"));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  args.finish();
}

TEST(ArgParser, UnknownKeyThrowsOnFinish) {
  const char* argv[] = {"prog", "--oops", "1"};
  ArgParser args(3, argv);
  (void)args.get_int("nodes", 1);
  EXPECT_THROW(args.finish(), tgc::CheckError);
}

TEST(ArgParser, NegativeNumbersAsValues) {
  const char* argv[] = {"prog", "--threshold", "-85.0"};
  ArgParser args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("threshold", 0.0), -85.0);
  args.finish();
}

TEST(ArgParser, EqualsSyntaxParsesTypedOptions) {
  const char* argv[] = {"prog", "--nodes=400", "--gamma=1.5", "--name=x",
                        "--flag"};
  ArgParser args(5, argv);
  EXPECT_EQ(args.get_int("nodes", 100), 400);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 2.0), 1.5);
  EXPECT_EQ(args.get_string("name", "y"), "x");
  EXPECT_TRUE(args.get_flag("flag"));
  args.finish();
}

TEST(ArgParser, EqualsSyntaxEdgeCases) {
  // An empty value, a value containing '=', and a negative number — the
  // split happens at the FIRST '=' only.
  const char* argv[] = {"prog", "--empty=", "--expr=a=b", "--threshold=-85.0"};
  ArgParser args(4, argv);
  EXPECT_EQ(args.get_string("empty", "default"), "");
  EXPECT_EQ(args.get_string("expr", ""), "a=b");
  EXPECT_DOUBLE_EQ(args.get_double("threshold", 0.0), -85.0);
  args.finish();
}

TEST(ArgParser, EqualsAndSpacedFormsMix) {
  const char* argv[] = {"prog", "--in=net.tgc", "--tau", "5"};
  ArgParser args(4, argv);
  EXPECT_EQ(args.get_string("in", ""), "net.tgc");
  EXPECT_EQ(args.get_int("tau", 0), 5);
  args.finish();
}

TEST(ArgParser, EmptyKeyBeforeEqualsThrows) {
  const char* argv[] = {"prog", "--=value"};
  EXPECT_THROW(ArgParser(2, argv), tgc::CheckError);
}

/// The CheckError message of reading `value` as option --x of the given
/// type, or "" when it parsed.
template <typename Get>
std::string numeric_error(const char* value, Get get) {
  const char* argv[] = {"prog", "--x", value};
  ArgParser args(3, argv);
  try {
    get(args);
  } catch (const tgc::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParser, NumbersMustBeTheWholeToken) {
  const auto get_int = [](ArgParser& a) { (void)a.get_int("x", 0); };
  const auto get_double = [](ArgParser& a) { (void)a.get_double("x", 0.0); };
  // A number's prefix is not the number: seed "1e3" must not run seed 1,
  // tau "4x" must not run tau 4, loss "0.1x" must not run loss 0.1.
  for (const char* bad : {"1e3", "4x", "0.5", "", "abc", " 4",
                          "99999999999999999999"}) {
    const std::string error = numeric_error(bad, get_int);
    EXPECT_NE(error.find(std::string("prog: --x wants an integer, got '") +
                         bad + "'"),
              std::string::npos)
        << "'" << bad << "': " << error;
  }
  for (const char* bad : {"0.1x", "", "1e", "x1"}) {
    const std::string error = numeric_error(bad, get_double);
    EXPECT_NE(error.find(std::string("prog: --x wants a number, got '") +
                         bad + "'"),
              std::string::npos)
        << "'" << bad << "': " << error;
  }

  const char* argv[] = {"prog", "--i", "-3", "--d", "0.25",
                        "--e", "1e-05", "--n", "-3"};
  ArgParser args(9, argv);
  EXPECT_EQ(args.get_int("i", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("d", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("e", 0.0), 1e-05);
  EXPECT_DOUBLE_EQ(args.get_double("n", 0.0), -3.0);
  args.finish();
}

TEST(ArgParser, UnsignedOptionsRefuseWhatTheyCannotHold) {
  const auto get_unsigned = [](ArgParser& a) {
    (void)a.get_uint<unsigned>("x", 0);
  };
  for (const char* bad : {"-3", "-0", "4294967296", "4x", "", "+4"}) {
    const std::string error = numeric_error(bad, get_unsigned);
    EXPECT_NE(error.find(std::string("prog: --x wants a non-negative "
                                     "integer, got '") +
                         bad + "'"),
              std::string::npos)
        << "'" << bad << "': " << error;
  }
  const char* argv[] = {"prog", "--u", "4294967295", "--s", "7"};
  ArgParser args(5, argv);
  EXPECT_EQ(args.get_uint<unsigned>("u", 0), 4294967295u);
  EXPECT_EQ(args.get_uint<std::uint64_t>("s", 1), 7u);
  EXPECT_EQ(args.get_uint<std::size_t>("missing", 9), 9u);
  args.finish();
  const auto resolved = args.resolved();
  EXPECT_EQ(resolved.front(), (std::pair<std::string, std::string>{
                                  "missing", "9"}));
}

// ------------------------------------------------------------------- Table

TEST(Table, AlignsAndCsv) {
  Table t({"tau", "ratio"});
  t.add_row({"3", Table::num(1.0, 2)});
  t.add_row({"4", Table::num(0.85, 2)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("tau"), std::string::npos);
  EXPECT_NE(s.find("0.85"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "tau,ratio\n3,1.00\n4,0.85\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), tgc::CheckError);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i, unsigned worker) {
    EXPECT_LT(worker, pool.num_workers());
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 0, [&](std::size_t, unsigned) { calls.fetch_add(1); });
  pool.parallel_for(7, 7, [&](std::size_t, unsigned) { calls.fetch_add(1); });
  pool.parallel_for(9, 5, [&](std::size_t, unsigned) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(3, 8, [&](std::size_t i, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_num_threads(6), 6u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), ThreadPool::resolve_num_threads(0));
}

TEST(ThreadPool, ExceptionPropagatesAfterRangeDrains) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> done{0};
    EXPECT_THROW(
        pool.parallel_for(0, 200,
                          [&](std::size_t i, unsigned) {
                            if (i == 13) throw std::runtime_error("boom");
                            done.fetch_add(1);
                          }),
        std::runtime_error);
    // Every non-throwing index still ran: the pool is quiescent afterwards.
    EXPECT_EQ(done.load(), 199);
  }
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  // Nested-free reuse: one pool serving many back-to-back loops (the
  // scheduler issues one fan-out per round).
  ThreadPool pool(4);
  std::vector<long> data(257, 0);
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, data.size(),
                      [&](std::size_t i, unsigned) { data[i] += i; });
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], 50 * static_cast<long>(i));
  }
}

// ------------------------------------------------------------ StampedArray

TEST(StampedArray, PutGetClear) {
  StampedArray<std::uint32_t> a;
  a.resize(8);
  EXPECT_FALSE(a.contains(3));
  a.put(3, 7);
  EXPECT_TRUE(a.contains(3));
  EXPECT_EQ(a.get(3), 7u);
  a.clear();
  EXPECT_FALSE(a.contains(3));
  a.put(3, 9);
  EXPECT_EQ(a.get(3), 9u);
}

TEST(StampedArray, ResizeGrowsAndKeepsStamps) {
  StampedArray<int> a;
  a.resize(4);
  a.put(2, -5);
  a.resize(16);  // grow: existing slot stays present, new slots absent
  EXPECT_TRUE(a.contains(2));
  EXPECT_EQ(a.get(2), -5);
  EXPECT_FALSE(a.contains(15));
  a.resize(8);  // never shrinks
  EXPECT_EQ(a.size(), 16u);
}

TEST(StampedArray, ManyEpochsStayIsolated) {
  StampedArray<std::size_t> a;
  a.resize(3);
  for (std::size_t epoch = 0; epoch < 10000; ++epoch) {
    a.clear();
    EXPECT_FALSE(a.contains(epoch % 3));
    a.put(epoch % 3, epoch);
    EXPECT_EQ(a.get(epoch % 3), epoch);
  }
}

}  // namespace
}  // namespace tgc::util
