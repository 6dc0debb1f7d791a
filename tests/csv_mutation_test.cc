// Seeded mutation test for ParseCsvRecord, the parser every CSV ingest
// path reads untrusted bytes through. Valid rows are damaged by bit
// flips, truncations, splices, duplicated commas and 400-digit runs; the
// parser must neither crash nor misbehave under ASan/UBSan, and must give
// exactly the reference parser's answer (csv_reference.h): the same
// record bits, or the same error code and text, naming the same line.
// The multi-feed rows of `frt_serve --feeds` (ParseFeedCsvRecord) get the
// same rows behind a feed column, plus damage to that column and its
// separator: an accepted row must be ParseCsvRecord of the text after the
// first comma, and a rejected one a Status naming the line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>

#include "csv_reference.h"
#include "stream/ingest.h"
#include "traj/io.h"

namespace frt {
namespace {

std::string ValidRow(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(-5e4, 5e4);
  const int64_t id = static_cast<int64_t>(rng() % 100000) - 50;
  const int64_t t = static_cast<int64_t>(rng() % 2000000000);
  char buf[256];
  switch (rng() % 6) {
    case 0:  // full precision, as an upstream projection might write
      std::snprintf(buf, sizeof(buf), "%" PRId64 ",%.17g,%.17g,%" PRId64, id,
                    coord(rng), coord(rng), t);
      break;
    case 1:  // padded fields, CRLF ending
      std::snprintf(buf, sizeof(buf), " %" PRId64 " ,\t%.1f, %.2f ,%" PRId64
                    "\r", id, coord(rng), coord(rng), t);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf), "# comment %" PRId64, id);
      break;
    default:  // the codec's own output format
      std::snprintf(buf, sizeof(buf), "%" PRId64 ",%.3f,%.3f,%" PRId64, id,
                    coord(rng), coord(rng), t);
      break;
  }
  return buf;
}

std::string DigitRun(std::mt19937_64& rng, size_t n) {
  std::string run(n, '0');
  for (char& c : run) c = static_cast<char>('0' + rng() % 10);
  return run;
}

void Mutate(std::mt19937_64& rng, const std::string& other, std::string* line) {
  const size_t at = line->empty() ? 0 : rng() % (line->size() + 1);
  switch (rng() % 6) {
    case 0:  // bit flip
      if (!line->empty()) {
        (*line)[at % line->size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1:  // truncation
      line->resize(at);
      break;
    case 2:  // splice with another row
      *line = line->substr(0, at) + other.substr(rng() % (other.size() + 1));
      break;
    case 3: {  // duplicated comma
      const size_t comma = line->find(',', at);
      line->insert(comma == std::string::npos ? at : comma, 1, ',');
      break;
    }
    case 4:  // 400-digit run, sometimes as a fraction or exponent
      line->insert(at, (rng() % 3 == 0 ? "." : rng() % 2 ? "e" : "") +
                           DigitRun(rng, 400));
      break;
    default:  // stray byte, NUL and high bytes included
      line->insert(at, 1, static_cast<char>(rng() % 256));
      break;
  }
}

TEST(CsvMutationTest, MutatedRowsParseLikeTheReference) {
  std::mt19937_64 rng(1234567);
  size_t records = 0;
  size_t errors = 0;
  for (size_t i = 0; i < 150000; ++i) {
    const std::string other = ValidRow(rng);
    std::string line = ValidRow(rng);
    const size_t mutations = rng() % 4;  // 0 keeps some rows valid
    for (size_t m = 0; m < mutations; ++m) Mutate(rng, other, &line);
    const size_t lineno = 1 + rng() % 1000000;

    const Result<std::optional<CsvRecord>> got = ParseCsvRecord(line, lineno);
    const Result<std::optional<CsvRecord>> want =
        reference::ParseCsvRecord(line, lineno);
    if (Describe(got) != Describe(want)) {
      ADD_FAILURE() << "case " << i << " line " << lineno << " '" << line
                    << "'\n  got:  " << Describe(got)
                    << "\n  want: " << Describe(want);
      return;
    }
    if (got.ok()) {
      records += got->has_value() ? 1 : 0;
    } else {
      ++errors;
    }
  }
  // The corpus must exercise both outcomes, not only one.
  EXPECT_GT(records, 10000u);
  EXPECT_GT(errors, 10000u);
}

TEST(CsvMutationTest, FieldCountErrorsNameTheLine) {
  for (const char* line : {"1,2,3", "1,2,3,4,5", ",,,,", "1;2;3;4"}) {
    const Result<std::optional<CsvRecord>> got = ParseCsvRecord(line, 42);
    ASSERT_FALSE(got.ok()) << line;
    EXPECT_EQ(got.status().ToString(),
              reference::ParseCsvRecord(line, 42).status().ToString());
    EXPECT_NE(got.status().message().find("line 42:"), std::string::npos);
  }
}

std::string FeedColumn(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return std::string(kMaxFeedIdBytes, 'f');  // the longest valid id
    case 1:
      return "Feed-0.a_Z";
    default:
      return std::string(1, "abxyz"[rng() % 5]) + std::to_string(rng() % 100);
  }
}

void MutateFeedColumn(std::mt19937_64& rng, std::string* line) {
  const size_t comma = line->find(',');
  const size_t end = comma == std::string::npos ? line->size() : comma;
  switch (rng() % 7) {
    case 0:  // separator replaced
      if (comma != std::string::npos) (*line)[comma] = ";\t |"[rng() % 4];
      break;
    case 1:  // separator dropped
      if (comma != std::string::npos) line->erase(comma, 1);
      break;
    case 2:  // leading dot
      line->insert(0, 1, '.');
      break;
    case 3: {  // a byte no feed id may hold
      const char bytes[] = {'/', '\\', ' ', '=', '\xc3', '\0'};
      line->insert(rng() % (end + 1), 1, bytes[rng() % sizeof(bytes)]);
      break;
    }
    case 4:  // one byte too long
      line->insert(0, kMaxFeedIdBytes + 1 - std::min(end, kMaxFeedIdBytes),
                   'f');
      break;
    case 5:  // empty id
      line->erase(0, end);
      break;
    default:  // indented
      line->insert(0, 1, rng() % 2 ? ' ' : '\t');
      break;
  }
}

/// What ParseFeedCsvRecord must answer for `line`: nothing for a blank or
/// '#' line, else the feed before the first comma and ParseCsvRecord of
/// the rest.
std::string ExpectedFeedRow(const std::string& line, size_t lineno) {
  const size_t first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || line[first] == '#') {
    return "ok (no record)";
  }
  const std::string at = "line " + std::to_string(lineno) + ": ";
  const size_t comma = line.find(',');
  if (comma == std::string::npos) {
    return Status::InvalidArgument(at + "expected feed,traj_id,x,y,t")
        .ToString();
  }
  const std::string feed = line.substr(0, comma);
  if (!IsValidFeedId(feed)) {
    return Status::InvalidArgument(at + kFeedIdRule).ToString();
  }
  const Result<std::optional<CsvRecord>> rest =
      ParseCsvRecord(std::string_view(line).substr(comma + 1), lineno);
  if (!rest.ok() || !rest->has_value()) return Describe(rest);
  return "feed '" + feed + "' " + Describe(rest);
}

TEST(CsvMutationTest, MutatedMultiFeedRowsParseLikeTheirRecord) {
  std::mt19937_64 rng(7654321);
  size_t records = 0;
  size_t feed_errors = 0;
  size_t record_errors = 0;
  for (size_t i = 0; i < 60000; ++i) {
    const std::string other = FeedColumn(rng) + "," + ValidRow(rng);
    std::string line = FeedColumn(rng) + "," + ValidRow(rng);
    if (rng() % 2) MutateFeedColumn(rng, &line);
    const size_t mutations = rng() % 3;
    for (size_t m = 0; m < mutations; ++m) Mutate(rng, other, &line);
    const size_t lineno = 1 + rng() % 1000000;

    std::string_view feed;
    const Result<std::optional<CsvRecord>> got =
        ParseFeedCsvRecord(line, lineno, &feed);
    const std::string described =
        got.ok() && got->has_value()
            ? "feed '" + std::string(feed) + "' " + Describe(got)
            : Describe(got);
    const std::string want = ExpectedFeedRow(line, lineno);
    if (described != want) {
      ADD_FAILURE() << "case " << i << " line " << lineno << " '" << line
                    << "'\n  got:  " << described << "\n  want: " << want;
      return;
    }
    if (got.ok()) {
      records += got->has_value() ? 1 : 0;
    } else if (got.status().IsInvalidArgument() &&
               got.status().message().find("feed") != std::string::npos) {
      ++feed_errors;
    } else {
      ++record_errors;
    }
  }
  // Every outcome must be exercised, not only one.
  EXPECT_GT(records, 5000u);
  EXPECT_GT(feed_errors, 5000u);
  EXPECT_GT(record_errors, 5000u);
}

}  // namespace
}  // namespace frt
