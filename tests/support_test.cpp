#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "blas/tuning.hpp"
#include "serve/fingerprint.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random_matrix.hpp"

namespace conflux {
namespace {

TEST(Check, ExpectsPassesOnTrue) { EXPECT_NO_THROW(expects(true)); }

TEST(Check, ExpectsThrowsContractErrorWithMessage) {
  try {
    expects(false, "bad argument");
    FAIL() << "expects(false) must throw";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad argument"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Expects"), std::string::npos);
  }
}

TEST(Check, EnsuresAndCheckThrowDistinctKinds) {
  try {
    ensures(false, "post");
    FAIL();
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("Ensures"), std::string::npos);
  }
  try {
    check(false, "inv");
    FAIL();
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("Check"), std::string::npos);
  }
}

TEST(Check, UnreachableAlwaysThrows) {
  EXPECT_THROW(unreachable("should not get here"), contract_error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t n = 10;
  std::array<int, n> counts{};
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.uniform_int(n);
    ASSERT_LT(v, n);
    counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, draws / static_cast<int>(n), draws / 100);
  }
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(0), contract_error);
}

TEST(Rng, NormalHasApproxUnitMoments) {
  Rng rng(13);
  double sum = 0.0, sumsq = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, ReseedReproducesStream) {
  Rng rng(99);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng());
  rng.reseed(99);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), first[static_cast<std::size_t>(i)]);
}

TEST(Table, PrintsAlignedColumnsWithHeader) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({std::string("x"), 42LL});
  t.add_row({std::string("longer"), 3.5});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.5"), std::string::npos);
}

TEST(Table, RowWidthMismatchIsRejected) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), contract_error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  TextTable t;
  t.set_header({"k"});
  t.add_row({std::string("a,b")});
  t.add_row({std::string("q\"q")});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(os.str().find("\"q\"\"q\""), std::string::npos);
}

TEST(Table, HumanCountUsesBinarySuffixes) {
  EXPECT_EQ(human_count(512), "512.00 ");
  EXPECT_EQ(human_count(2048), "2.00 Ki");
  EXPECT_EQ(human_count(3.0 * 1024 * 1024), "3.00 Mi");
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--verbose", "--ratio=0.5"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("missing", "dflt"), "dflt");
  EXPECT_NO_THROW(cli.check_unused());
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, argv), contract_error);
}

TEST(Cli, CheckUnusedFlagsUnknownOptions) {
  const char* argv[] = {"prog", "--typo=3"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.check_unused(), contract_error);
}

// ------------------------------------------------- matrix fingerprints ----
// The solve service's cache key (ISSUE 9 satellite): content-only across
// layouts and execution configuration, bit-sensitive to one-ulp changes,
// and O(n^2) single-pass with its cost metered under serve.fingerprint.*.

TEST(Fingerprint, ContentEqualMatricesHashEqualAcrossLayoutAndThreads) {
  const index_t n = 40;
  const MatrixD a = random_matrix(n, n, 81);
  const serve::Fingerprint base = serve::fingerprint(a.view());

  // Same content again: pure function of the bits.
  EXPECT_EQ(base, serve::fingerprint(a.view()));

  // A strided view of the same logical matrix (embedded in a wider buffer)
  // hashes identically — the leading dimension is not content.
  MatrixD wide(n, n + 9, 1.25);
  copy(a.view(), wide.block(0, 0, n, n));
  EXPECT_EQ(base, serve::fingerprint(
                      ConstViewD(wide.block(0, 0, n, n))));

  // Thread counts, pool width, pz — none of it feeds the hash: it is a
  // single-thread fold, so exercising it under a different BLAS thread
  // setting must change nothing.
  {
    xblas::ScopedThreadCap cap(1);
    EXPECT_EQ(base, serve::fingerprint(a.view()));
  }

  // Shape is content: the transpose-shaped view of a non-square buffer and
  // a different-size matrix must both miss.
  const MatrixD smaller = random_matrix(n - 1, n - 1, 81);
  EXPECT_FALSE(base == serve::fingerprint(smaller.view()));
}

TEST(Fingerprint, OneUlpPerturbationAndSignedZeroChangeTheKey) {
  const index_t n = 24;
  MatrixD a = random_matrix(n, n, 82);
  const serve::Fingerprint base = serve::fingerprint(a.view());

  const double saved = a(3, 5);
  a(3, 5) = std::nextafter(saved, 2.0 * saved + 1.0);  // one ulp
  EXPECT_FALSE(base == serve::fingerprint(a.view()))
      << "a one-ulp perturbation must change the cache key";
  a(3, 5) = saved;
  EXPECT_EQ(base, serve::fingerprint(a.view()));

  a(0, 0) = 0.0;
  const serve::Fingerprint plus_zero = serve::fingerprint(a.view());
  a(0, 0) = -0.0;
  EXPECT_FALSE(plus_zero == serve::fingerprint(a.view()))
      << "+0.0 and -0.0 are different bit patterns, so different keys";
}

TEST(Fingerprint, CombineIsOrderSensitiveAndPrecisionTagged) {
  const MatrixD a = random_matrix(8, 8, 83);
  const serve::Fingerprint base = serve::fingerprint(a.view());
  const serve::Fingerprint ab =
      serve::fingerprint_combine(serve::fingerprint_combine(base, 1), 2);
  const serve::Fingerprint ba =
      serve::fingerprint_combine(serve::fingerprint_combine(base, 2), 1);
  EXPECT_FALSE(ab == ba) << "key derivation must be order-sensitive";

  // An fp32 matrix never aliases an fp64 one, even with equal values.
  MatrixF a32(8, 8);
  convert<double, float>(a.view(), a32.view());
  MatrixD back(8, 8);
  convert<float, double>(ConstViewF(a32.view()), back.view());
  EXPECT_FALSE(serve::fingerprint(ConstViewF(a32.view())) ==
               serve::fingerprint(back.view()));

  EXPECT_EQ(base.hex().size(), 32u);
}

TEST(Fingerprint, SinglePassCostIsMeteredPerElement) {
  // The serve.fingerprint.elements counter must advance by exactly n*m per
  // hash — the observable proof that hashing reads each element once.
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  metrics::reset();
  const MatrixD a = random_matrix(32, 32, 84);
  (void)serve::fingerprint(a.view());
  const MatrixD b = random_matrix(16, 16, 85);
  (void)serve::fingerprint(b.view());
  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.value("serve.fingerprint.matrices"), 2.0);
  EXPECT_EQ(snap.value("serve.fingerprint.elements"),
            32.0 * 32.0 + 16.0 * 16.0);
  EXPECT_GE(snap.value("serve.fingerprint.seconds"), 0.0);
  metrics::set_enabled(was_enabled);
}

TEST(Json, ReaderRoundTripsWriterOutput) {
  // Escapes (quote, backslash, short forms, a \u00XX control character),
  // shortest-round-trip numbers and non-finite doubles (written as null)
  // all parse back to exactly what was written.
  const std::string tricky = std::string("q\"b\\n\nt\tr\rc") + '\x01' + "/\xc3\xa9";
  const double third = 1.0 / 3.0;
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.field("s", std::string_view(tricky));
  w.field("third", third);
  w.field("tiny", 1e-300);
  w.field("big", -1.5e300);
  w.field("i", -42LL);
  w.field("u", 18446744073709551615ULL);
  w.field("nan", std::numeric_limits<double>::quiet_NaN());
  w.field("inf", std::numeric_limits<double>::infinity());
  w.field("yes", true);
  w.key("list");
  w.begin_array();
  w.value(0.0);
  w.begin_object();
  w.end_object();
  w.begin_array();
  w.end_array();
  w.null();
  w.end_array();
  w.end_object();

  const auto v = json::parse(os.str());
  ASSERT_TRUE(v.has_value()) << os.str();
  ASSERT_TRUE(v->is(json::Value::Kind::kObject));
  EXPECT_EQ(v->get("s")->string, tricky);
  EXPECT_EQ(v->get("third")->number, third);
  EXPECT_EQ(v->get("tiny")->number, 1e-300);
  EXPECT_EQ(v->get("big")->number, -1.5e300);
  EXPECT_EQ(v->get("i")->number, -42.0);
  EXPECT_EQ(v->get("u")->number, 18446744073709551615.0);
  EXPECT_TRUE(v->get("nan")->is(json::Value::Kind::kNull));
  EXPECT_TRUE(v->get("inf")->is(json::Value::Kind::kNull));
  EXPECT_TRUE(v->get("yes")->boolean);
  EXPECT_EQ(v->get("missing"), nullptr);
  const json::Value& list = *v->get("list");
  ASSERT_EQ(list.array.size(), 4u);
  EXPECT_EQ(list.array[0].number, 0.0);
  EXPECT_TRUE(list.array[1].is(json::Value::Kind::kObject));
  EXPECT_TRUE(list.array[2].is(json::Value::Kind::kArray));
  EXPECT_TRUE(list.array[3].is(json::Value::Kind::kNull));
}

TEST(Json, ReaderDecodesUnicodeEscapes) {
  const auto v = json::parse(R"(["\u00e9\u20AC", "\ud83d\ude00", "\/"])");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->array[0].string, "\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(v->array[1].string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(v->array[2].string, "/");
}

TEST(Json, ReaderRejectsMalformedInput) {
  const char* bad[] = {
      "",               // no value
      " ",              // still no value
      "{} x",           // trailing garbage
      "[1] [2]",        // two documents
      "\"a\x01\"",      // raw control character
      "\"a\nb\"",       // raw newline
      "\"abc",          // unterminated string
      R"("\x")",        // unknown escape
      R"("\u12G4")",    // bad hex digit
      R"("\u12")",      // short \u escape
      R"("\ud800")",    // unpaired high surrogate
      R"("\udc00")",    // unpaired low surrogate
      "01",             // leading zero
      "+1",             // leading plus
      "1.",             // bare fraction point
      ".5",             // no integer part
      "-",              // sign only
      "1e",             // bare exponent
      "1e+",            // exponent without digits
      "0x10",           // hex
      "1e999",          // outside double range
      "NaN",            // not JSON
      "nul",            // truncated literal
      "[1,]",           // trailing comma
      "{\"a\":1,}",     // trailing comma
      "{\"a\" 1}",      // missing colon
      "{a:1}",          // unquoted key
      "[1 2]",          // missing comma
      "\f[]",           // form feed is not JSON whitespace
  };
  for (const char* text : bad) {
    EXPECT_FALSE(json::parse(text).has_value()) << "accepted: " << text;
  }
  EXPECT_FALSE(json::parse(std::string(300, '[') + std::string(300, ']')).has_value())
      << "nesting past the depth limit";
  EXPECT_TRUE(json::parse(std::string(200, '[') + std::string(200, ']')).has_value());
  EXPECT_TRUE(json::parse(" \t\r\n{\"a\": [-0, 0.5, 1E+2, -2e-3]} \n").has_value());
}

}  // namespace
}  // namespace conflux
