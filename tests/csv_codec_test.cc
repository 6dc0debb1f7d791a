// Differential tests for the CSV codec: WriteTrajectoryCsv against
// snprintf("%" PRId64 ",%.3f,%.3f,%" PRId64 "\n") on a million seeded
// rows, and ParseInt64/ParseDouble against the strtoll/strtod reference
// parsers (csv_reference.h) on hostile and random fields. Every written
// byte, parsed value bit and error text must agree.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "csv_reference.h"
#include "traj/io.h"
#include "traj/trajectory.h"

namespace frt {
namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

std::string ExpectedRows(const Trajectory& trajectory,
                         const std::string& prefix) {
  std::string out;
  char buf[1024];
  for (const auto& tp : trajectory.points()) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 ",%.3f,%.3f,%" PRId64 "\n",
                  trajectory.id(), tp.p.x, tp.p.y, tp.t);
    out += prefix;
    out += buf;
  }
  return out;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Coordinates chosen to stress "%.3f": exact binary ties at the third
// decimal, decimal near-ties, carries, tiny and signed zeros, magnitudes
// up to 1e15, and (rarely) inf, nan and the subnormal/normal edges.
double DrawCoordinate(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double sign = (rng() & 1) ? -1.0 : 1.0;
  switch (rng() % 10) {
    case 0:
    case 1:
      return std::uniform_real_distribution<double>(-2e4, 2e4)(rng);
    case 2: {  // k + odd/16: an exact tie at the third decimal
      const double k = static_cast<double>(rng() % 2000000);
      return sign * (k + static_cast<double>(2 * (rng() % 8) + 1) / 16.0);
    }
    case 3: {  // decimal ties that are not binary-exact
      const double k = static_cast<double>(rng() % 2000000);
      return sign * (k + (static_cast<double>(rng() % 1000) + 0.5) / 1000.0);
    }
    case 4: {  // carries: 9.9995, 999.99996, ...
      const double k = std::pow(10.0, static_cast<double>(rng() % 12));
      return sign * (k - 0.0005 + (unit(rng) - 0.5) * 1e-6);
    }
    case 5: {
      static const double kTiny[] = {0.0,     1e-4,   4.999e-4, 5e-4,
                                     5.001e-4, 1e-3,  1e-300,   5e-324,
                                     0.0625,  0.1875, 2.5625,   0.0005};
      return sign * kTiny[rng() % (sizeof(kTiny) / sizeof(kTiny[0]))];
    }
    case 6:
      return sign * unit(rng) * 1e-3;
    case 7:
    case 8:
      return sign * std::pow(10.0, unit(rng) * 15.0) * (1.0 + unit(rng));
    default: {
      static const double kEdges[] = {
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          FromBits(0x7ff0000000000001ull),  // signalling payload
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          1e15,
          999999999999999.9,
      };
      if (rng() % 64 == 0) {
        return sign * kEdges[rng() % (sizeof(kEdges) / sizeof(kEdges[0]))];
      }
      return sign * std::ldexp(unit(rng), static_cast<int>(rng() % 60) - 10);
    }
  }
}

int64_t DrawInteger(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return kI64Min;
    case 1:
      return kI64Max;
    case 2:
      return static_cast<int64_t>(rng());
    case 3:
      return -static_cast<int64_t>(rng() % 1000);
    default:
      return static_cast<int64_t>(rng() % 100000);
  }
}

TEST(CsvWriterTest, MatchesSnprintfOnAMillionSeededRows) {
  std::mt19937_64 rng(20240517);
  const std::vector<std::string> prefixes = {"", "feed,", "f-7.a_Z,"};
  size_t rows = 0;
  size_t trajectories = 0;
  while (rows < 1000000) {
    Trajectory trajectory(DrawInteger(rng));
    const size_t n = 1 + rng() % 160;
    for (size_t i = 0; i < n; ++i) {
      trajectory.Append(Point{DrawCoordinate(rng), DrawCoordinate(rng)},
                        DrawInteger(rng));
    }
    const std::string& prefix = prefixes[trajectories % prefixes.size()];
    std::ostringstream out;
    if (prefix.empty()) {
      WriteTrajectoryCsv(trajectory, out);
    } else {
      WriteTrajectoryCsv(trajectory, out, prefix);
    }
    const std::string want = ExpectedRows(trajectory, prefix);
    const std::string got = out.str();
    if (got != want) {
      // Name the first differing row, not a megabyte of context.
      size_t at = 0;
      while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
      const size_t line_start = want.rfind('\n', at) == std::string::npos
                                    ? 0
                                    : want.rfind('\n', at) + 1;
      ADD_FAILURE() << "trajectory " << trajectories << " differs at byte "
                    << at << "\n  want: "
                    << want.substr(line_start, want.find('\n', at) - line_start)
                    << "\n  got:  "
                    << got.substr(line_start, got.find('\n', at) - line_start);
      return;
    }
    rows += n;
    ++trajectories;
  }
}

TEST(CsvWriterTest, SignedZeroAndTinyNegativesKeepTheirSign) {
  Trajectory trajectory(-1);
  trajectory.Append(Point{-0.0, -0.0004}, 0);
  trajectory.Append(Point{0.0625, -0.0625}, 1);
  trajectory.Append(Point{0.1875, 2.5625}, 2);
  std::ostringstream out;
  WriteTrajectoryCsv(trajectory, out);
  EXPECT_EQ(out.str(),
            "-1,-0.000,-0.000,0\n"
            "-1,0.062,-0.062,1\n"
            "-1,0.188,2.562,2\n");
}

// "%.3f" of a huge double runs to 300+ digits; such rows are written
// whole (a fixed 160-byte row buffer once cut them, newline included).
TEST(CsvWriterTest, HugeCoordinatesAreWrittenWhole) {
  std::mt19937_64 rng(3);
  Trajectory trajectory(std::numeric_limits<int64_t>::min());
  trajectory.Append(Point{std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max()},
                    kI64Max);
  trajectory.Append(Point{1e300, -1e200}, kI64Min);
  for (int i = 0; i < 2000; ++i) {
    trajectory.Append(Point{FromBits(rng()), FromBits(rng())},
                      DrawInteger(rng));
  }
  std::ostringstream out;
  WriteTrajectoryCsv(trajectory, out, "feed,");
  EXPECT_EQ(out.str(), ExpectedRows(trajectory, "feed,"));
}

TEST(CsvWriterTest, EmptyTrajectoryWritesNothing) {
  std::ostringstream out;
  WriteTrajectoryCsv(Trajectory(3), out, "feed,");
  EXPECT_EQ(out.str(), "");
}

// Fields where strtod/strtoll and from_chars part ways: signs, hex,
// non-finite spellings, subnormal and out-of-range values, partial parses.
const std::vector<std::string>& HostileFields() {
  static const std::vector<std::string> fields = {
      "+1", " 1 ", "0x1p3", "inf", "nan", "infinity", "1e-310", "1e-400",
      "1e400", "9223372036854775808", "-0", ".5", "5.", "1.5x", "",
      // Int64 edges, signs, whitespace, spellings, range boundaries.
      "-9223372036854775808", "-9223372036854775809", "9223372036854775807",
      "+0", "-", "+", ".", "e5", "1e", "1e+", "1e-", "1.", "-.5", "+.5",
      "00012", "-00", "1_000", "1,5", "1 5", "\v1", "1\f", "\t-2\r\n",
      "NaN", "-nan", "+inf", "-inf", "INF", "Infinity", "infin", "nan(1)",
      "nan()", "0x10", "0X1P-3", "-0x1.8p1", "0x", "1e5", "1E5", "1e+05",
      "12345678901234567890", "0.000", "-0.000", "4.9e-324", "5e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "2.2250738585072012e-308", "-2.2250738585072012e-308",  // ERANGE
      "2.2250738585072009e-308", "1.7976931348623157e308",
      "1.7976931348623158e308", "1.7976931348623159e308", "0e-99999",
      "0e99999", "1e-99999", "0.0000000000000000000000000000001e-300",
      std::string("1\0" "2", 3), std::string(400, '9'),
      "0." + std::string(400, '0') + "1", "1" + std::string(310, '0'),
      "2.5625", "0.0625", "123.4560", "-987654.321",
  };
  return fields;
}

TEST(CsvParserTest, HostileFieldsMatchTheStrtodReference) {
  for (const std::string& field : HostileFields()) {
    EXPECT_EQ(Describe(ParseDouble(field)),
              Describe(reference::ParseDouble(field)))
        << "ParseDouble('" << field << "')";
    EXPECT_EQ(Describe(ParseInt64(field)),
              Describe(reference::ParseInt64(field)))
        << "ParseInt64('" << field << "')";
  }
}

TEST(CsvParserTest, RandomFieldsMatchTheStrtodReference) {
  std::mt19937_64 rng(7);
  static const char kAlphabet[] = "0123456789+-.eExXpPinfatyINF \t\v,";
  const size_t alphabet = sizeof(kAlphabet) - 1;
  std::string field;
  for (int i = 0; i < 200000; ++i) {
    field.clear();
    switch (i % 4) {
      case 0: {  // soup
        const size_t n = rng() % 24;
        for (size_t j = 0; j < n; ++j) field += kAlphabet[rng() % alphabet];
        break;
      }
      case 1: {  // well-formed decimal with a wide exponent
        if (rng() % 3 == 0) field += '-';
        const size_t digits = 1 + rng() % 40;
        for (size_t j = 0; j < digits; ++j) {
          field += static_cast<char>('0' + rng() % 10);
          if (j == rng() % digits) field += '.';
        }
        if (rng() % 2) {
          field += 'e' + std::to_string(static_cast<int>(rng() % 800) - 400);
        }
        break;
      }
      case 2: {  // any double, shortest and long spellings
        char buf[64];
        std::snprintf(buf, sizeof(buf), (rng() & 1) ? "%.17g" : "%.3f",
                      FromBits(rng()));
        field = buf;
        break;
      }
      default: {  // integers around the int64 edges
        const int64_t base = (rng() & 1) ? kI64Max : kI64Min;
        const int64_t delta = static_cast<int64_t>(rng() % 4);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      base == kI64Max ? base - delta : base + delta);
        field = buf;
        if (rng() % 4 == 0) field += static_cast<char>('0' + rng() % 10);
        break;
      }
    }
    const std::string want_d = Describe(reference::ParseDouble(field));
    const std::string got_d = Describe(ParseDouble(field));
    const std::string want_i = Describe(reference::ParseInt64(field));
    const std::string got_i = Describe(ParseInt64(field));
    if (got_d != want_d || got_i != want_i) {
      ADD_FAILURE() << "field '" << field << "': ParseDouble " << got_d
                    << " vs " << want_d << "; ParseInt64 " << got_i << " vs "
                    << want_i;
      return;
    }
  }
}

TEST(CsvParserTest, WrittenRowsParseBackToTheReferenceValues) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    Trajectory trajectory(DrawInteger(rng));
    trajectory.Append(Point{DrawCoordinate(rng), DrawCoordinate(rng)},
                      DrawInteger(rng));
    std::ostringstream out;
    WriteTrajectoryCsv(trajectory, out);
    std::string line = out.str();
    line.pop_back();
    EXPECT_EQ(Describe(ParseCsvRecord(line, 5)),
              Describe(reference::ParseCsvRecord(line, 5)))
        << line;
  }
}

}  // namespace
}  // namespace frt
