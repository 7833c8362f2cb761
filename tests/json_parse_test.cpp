// JsonValue: strict RFC 8259 parsing for the sweep service protocol.
//
// Requests arrive from untrusted clients over a local socket, one JSON value
// per line, so the parser must reject malformed input loudly (CheckFailure,
// never UB), bound its recursion, and consume the whole line. Round-trip
// cases pair it with JsonObject: everything the writer emits must parse back
// to the same structure, since the service echoes specs into cache keys.
#include "ppsim/util/json_parse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <string>
#include <vector>

#include "ppsim/util/check.hpp"
#include "ppsim/util/json.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {
namespace {

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("3.5").as_number(), 3.5);
  EXPECT_EQ(JsonValue::parse("-17").as_int(), -17);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e-3").as_number(), 1e-3);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2E+2").as_number(), 200.0);
}

TEST(JsonParseTest, ParsesContainersAndPreservesMemberOrder) {
  const JsonValue v =
      JsonValue::parse(R"({"b": [1, 2, {"x": true}], "a": null, "c": "s"})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "c");
  const JsonValue& arr = v.at("b");
  ASSERT_EQ(arr.items().size(), 3u);
  EXPECT_EQ(arr.items()[0].as_int(), 1);
  EXPECT_TRUE(arr.items()[2].at("x").as_bool());
  EXPECT_TRUE(v.at("a").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParseTest, GettersFallBackOnlyWhenAbsent) {
  const JsonValue v = JsonValue::parse(R"({"n": 4, "s": "x", "b": true})");
  EXPECT_EQ(v.get_int("n", 0), 4);
  EXPECT_EQ(v.get_int("absent", 9), 9);
  EXPECT_EQ(v.get_string("s", ""), "x");
  EXPECT_EQ(v.get_string("absent", "d"), "d");
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_DOUBLE_EQ(v.get_number("n", 0.0), 4.0);
  // Present-but-mistyped members throw instead of silently falling back.
  EXPECT_THROW(v.get_int("s", 0), CheckFailure);
  EXPECT_THROW(v.get_bool("n", false), CheckFailure);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  const JsonValue v =
      JsonValue::parse(R"("a\"b\\c\/d\n\t\r\b\f\u0041\u00e9")");
  EXPECT_EQ(v.as_string(), "a\"b\\c/d\n\t\r\b\f"
                           "A\xc3\xa9");
  // Surrogate pair: U+1F600 encodes as 4 UTF-8 bytes.
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",          "{",           "[1,]",      "{\"a\":}",  "{'a':1}",
      "tru",       "nulll",       "01",        "1.",        ".5",
      "+1",        "1e",          "--1",       "\"\\x\"",   "\"unterminated",
      "\"\\ud800\"",              // lone high surrogate
      "\"\\udc00\"",              // lone low surrogate
      "{\"a\":1,}",               // trailing comma
      "{\"a\":1 \"b\":2}",        // missing comma
      "[1] 2",                    // trailing bytes
      "NaN",       "Infinity",    "\"a\tb\"",  // raw control char
      "{\"a\":1,\"a\":2}",        // duplicate key
  };
  for (const char* text : bad) {
    EXPECT_THROW(JsonValue::parse(text), CheckFailure) << "input: " << text;
  }
}

TEST(JsonParseTest, TypeMismatchesThrow) {
  const JsonValue v = JsonValue::parse("[1]");
  EXPECT_THROW(v.as_bool(), CheckFailure);
  EXPECT_THROW(v.as_string(), CheckFailure);
  EXPECT_THROW(v.members(), CheckFailure);
  EXPECT_THROW(v.at("k"), CheckFailure);
  EXPECT_THROW(JsonValue::parse("1.5").as_int(), CheckFailure);
  EXPECT_THROW(JsonValue::parse("1e300").as_int(), CheckFailure);
}

TEST(JsonParseTest, DepthIsCapped) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(JsonValue::parse(deep), CheckFailure);
  // 60 levels is inside the cap.
  std::string ok;
  for (int i = 0; i < 60; ++i) ok += '[';
  for (int i = 0; i < 60; ++i) ok += ']';
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

// Writer output exercising escapes, integers, doubles, booleans and arrays.
std::string writer_sample() {
  JsonObject obj;
  obj.field("name", "sweep \"q\"\n")
      .field("n", std::int64_t{100000})
      .field("bias", 0.7071067811865476)
      .field("ok", true)
      .field("values", std::vector<double>{0.1, 1e13, -0.0});
  return obj.str();
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  const JsonValue v = JsonValue::parse(writer_sample());
  EXPECT_EQ(v.at("name").as_string(), "sweep \"q\"\n");
  EXPECT_EQ(v.at("n").as_int(), 100000);
  EXPECT_EQ(v.at("bias").as_number(), 0.7071067811865476);
  EXPECT_TRUE(v.at("ok").as_bool());
  ASSERT_EQ(v.at("values").items().size(), 3u);
  EXPECT_EQ(v.at("values").items()[1].as_number(), 1e13);
  EXPECT_TRUE(std::signbit(v.at("values").items()[2].as_number()));
}

TEST(JsonParseTest, SeededMutationsParseOrThrowCheckFailure) {
  // Hostile-input fuzzing: a service submit line and the writer sample, each
  // hit by 1-8 seeded byte flips, deletions, insertions and truncations.
  // Every mutant must parse or throw CheckFailure; any other exception (or a
  // crash, which the sanitizer lane turns loud) is a parser fault.
  const std::vector<std::string> seeds = {
      R"({"type": "submit", "n": [200, 300], "k": [2, 3], "engine": )"
      R"("collapsed", "trials": "auto:0.1", "seed": 3, "threads": 4})",
      writer_sample(),
  };
  // Insertions draw half their bytes from JSON's own alphabet so mutants
  // reach past the first token.
  const std::string alphabet = "{}[]\":,\\.-+eE0123456789tfnlrsu \t\n";
  Xoshiro256pp rng(20250506);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int c = 0; c < 20000; ++c) {
    std::string text = seeds[rng() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 8);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng() % text.size();
      switch (rng() % 4) {
        case 0:
          text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
          break;
        case 1:
          text.erase(at, 1);
          break;
        case 2:
          text.insert(at, 1,
                      rng() % 2 == 0 ? alphabet[rng() % alphabet.size()]
                                     : static_cast<char>(rng() % 256));
          break;
        default:
          text.resize(at);
          break;
      }
    }
    try {
      JsonValue::parse(text);
      ++parsed;
    } catch (const CheckFailure&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw " << e.what() << " on: " << text;
    }
  }
  // Both outcomes occur, so the corpus is neither all-garbage nor all-benign.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonParseTest, AcceptsSurroundingWhitespaceOnly) {
  EXPECT_EQ(JsonValue::parse(" \t\r\n 5 \n").as_int(), 5);
  EXPECT_THROW(JsonValue::parse("5 x"), CheckFailure);
}

TEST(JsonParseTest, HugeNumbersClampLikeStrtod) {
  EXPECT_TRUE(std::isinf(JsonValue::parse("1e999").as_number()));
  EXPECT_EQ(JsonValue::parse("1e-999").as_number(), 0.0);
}

}  // namespace
}  // namespace ppsim
