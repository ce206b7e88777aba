/**
 * @file
 * Fuzz-style corpus test for the JSON parser: hostile inputs — deep
 * nesting, bad escapes, NaN/Inf tokens, truncated hexfloats, every
 * possible truncation of valid documents, and seeded random byte
 * mutations — must yield std::nullopt or a valid value, never a
 * crash, hang, or accepted garbage. The run-cache loader leans on
 * this: a concurrently truncated runs.json degrades to a miss.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "sim/perf_result.hh"

namespace
{

using namespace mmgpu;

/** Parse and assert only that the call returns (no crash/UB). */
bool
survives(const std::string &text)
{
    auto value = parseJson(text);
    if (value) {
        // Whatever parsed must serialize without tripping asserts.
        (void)value->dump();
    }
    return value.has_value();
}

const char *const kCorpusValid[] = {
    "null",
    "true",
    "false",
    "0",
    "-1",
    "3.25",
    "1e10",
    "\"hello\"",
    "\"esc \\\" \\\\ \\n \\t \\u0041\"",
    "[]",
    "{}",
    "[1, 2, [3, {\"k\": null}]]",
    "{\"schema\": 2, \"entries\": [{\"key\": \"abc\","
    " \"perf\": {\"execSeconds\": \"0x1.999999999999ap-4\"}}]}",
};

const char *const kCorpusInvalid[] = {
    "",
    "   ",
    "nul",
    "tru",
    "falsehood extra",
    "+1",
    ".5",
    "-",
    "--1",
    "1.2.3",
    "1e",
    "0x10",          // hex numbers are not JSON
    "NaN",
    "nan",
    "Infinity",
    "-Infinity",
    "inf",
    "1e999999",      // overflows to Inf
    "-1e999999",
    "\"unterminated",
    "\"bad escape \\q\"",
    "\"trunc \\",
    "\"\\u12\"",     // truncated \u escape
    "\"\\uZZZZ\"",
    "\"\\uD800\"",   // surrogate range rejected (> 0xff)
    "[1, 2",
    "[1,, 2]",
    "[1 2]",
    "{\"a\" 1}",
    "{\"a\": }",
    "{\"a\": 1,}",
    "{a: 1}",
    "{\"a\": 1} trailing",
    "[}",
    "{]",
};

TEST(JsonFuzz, ValidCorpusParses)
{
    for (const char *text : kCorpusValid)
        EXPECT_TRUE(survives(text)) << text;
}

TEST(JsonFuzz, HostileCorpusIsRejectedWithoutCrashing)
{
    for (const char *text : kCorpusInvalid)
        EXPECT_FALSE(survives(text)) << text;
}

TEST(JsonFuzz, DeepNestingIsBoundedNotAStackOverflow)
{
    // 1000 levels: far beyond the parser's depth cap; must reject
    // promptly instead of recursing to a stack overflow.
    std::string arrays(1000, '[');
    EXPECT_FALSE(survives(arrays));
    std::string closed = arrays + std::string(1000, ']');
    EXPECT_FALSE(survives(closed));

    std::string objects;
    for (int i = 0; i < 1000; ++i)
        objects += "{\"k\":";
    EXPECT_FALSE(survives(objects));

    // A modest depth still parses.
    std::string shallow(16, '[');
    shallow += std::string(16, ']');
    EXPECT_TRUE(survives(shallow));
}

TEST(JsonFuzz, EveryTruncationOfValidDocumentsSurvives)
{
    for (const char *text : kCorpusValid) {
        std::string doc(text);
        for (std::size_t len = 0; len < doc.size(); ++len)
            (void)survives(doc.substr(0, len));
    }
}

TEST(JsonFuzz, TruncatedHexfloatStringsStayStrings)
{
    // The run cache stores doubles as hexfloat *strings*; a torn
    // write can truncate one mid-token. The JSON layer must still
    // parse (it is just a string) — decoding rejects it later.
    auto value = parseJson("{\"v\": \"0x1.8p\"}");
    ASSERT_TRUE(value.has_value());
    const JsonValue *v = value->find("v");
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->isString());
}

TEST(JsonFuzz, SeededRandomMutationsNeverCrash)
{
    // Deterministic fuzzing: mutate bytes of a real-looking document
    // under a fixed seed. Every mutant must either parse or be
    // rejected — the assertion is simply "no crash, no hang".
    std::string seed_doc =
        "{\"schema\": 2, \"entries\": [{\"key\": \"17\", \"perf\": "
        "{\"execCycles\": \"0x1.0p+20\", \"instrs\": [1, 2, 3]}, "
        "\"energy\": {\"smBusy\": \"0x1.8p+3\"}}]}";
    Rng rng(0xfa57);
    for (int round = 0; round < 2000; ++round) {
        std::string mutant = seed_doc;
        unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
        for (unsigned e = 0; e < edits; ++e) {
            std::size_t at = rng.below(mutant.size());
            switch (rng.below(3)) {
              case 0: // flip to a random byte (printable-ish range)
                mutant[at] =
                    static_cast<char>(32 + rng.below(96));
                break;
              case 1: // delete
                mutant.erase(at, 1);
                break;
              default: // duplicate
                mutant.insert(at, 1, mutant[at]);
            }
            if (mutant.empty())
                break;
        }
        (void)survives(mutant);
    }
}

// ---------------------------------------------------------------- //
// Pins taken from the tree-based writer and codec the streaming     //
// reader and writer replaced: the same bytes out, the same verdicts //
// in.                                                               //
// ---------------------------------------------------------------- //

std::uint64_t
digestOf(const std::string &bytes)
{
    Fnv1a hash;
    hash.addBytes(bytes.data(), bytes.size());
    return hash.digest();
}

/** Nested containers, escapes, control characters, integers and the
 *  doubles a 12-digit rendering already printed exactly. */
JsonValue
mixedDocument()
{
    JsonValue ints = JsonValue::array();
    for (long long v : {0LL, -1LL, 42LL, 123456789012345LL,
                        -999999999999999LL})
        ints.push(v);
    JsonValue reals = JsonValue::array();
    for (double v : {3.25, -0.5, 1e-7, 2.5e20, 1e15, 0.1, 123.456,
                     1.5e-300, -0.0,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()})
        reals.push(v);
    JsonValue deepest = JsonValue::array();
    deepest.push(JsonValue::array());
    deepest.push(JsonValue::array().push(JsonValue::object()));
    deepest.push(JsonValue::array().push(1).push(
        JsonValue::array().push(2).push(JsonValue::array().push(3))));
    JsonValue inner = JsonValue::object();
    inner.set("c", std::move(deepest));
    inner.set("b", JsonValue::object());
    JsonValue nested = JsonValue::object();
    nested.set("b", std::move(inner));
    nested.set("a", "x");

    JsonValue doc = JsonValue::object();
    doc.set("text", std::string("quote \" backslash \\ slash / nl \n "
                                "tab \t cr \r bell \a nul ") +
                        std::string(1, '\0') +
                        " unit \x1f del \x7f utf8 \xc3\xa9");
    doc.set("ints", std::move(ints));
    doc.set("reals", std::move(reals));
    doc.set("flags", JsonValue::array().push(true).push(false).push(
                         nullptr));
    doc.set("empty", JsonValue::object());
    doc.set("none", JsonValue::array());
    doc.set("nested", std::move(nested));
    doc.set("key\twith\x01" "control", 7);
    doc.set("", "empty key");
    doc.set("Zebra", 2.75); // upper case sorts before lower case
    return doc;
}

TEST(JsonPins, DumpBytesArePinned)
{
    const JsonValue doc = mixedDocument();
    const std::string pretty = doc.dump();
    const std::string compact = doc.dumpCompact();
    EXPECT_EQ(digestOf(pretty), 0x26e0d1b5d5ef20e4ull) << pretty;
    EXPECT_EQ(digestOf(compact), 0x1fc8d77eac4e8766ull) << compact;
    std::ostringstream indented;
    doc.write(indented, 2);
    EXPECT_EQ(digestOf(indented.str()), 0x86b882fad4210264ull)
        << indented.str();
    EXPECT_EQ(compact.find('\n'), std::string::npos);

    // Both spellings parse back to the same document.
    std::optional<JsonValue> back = parseJson(pretty);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->dumpCompact(), compact);
    back = parseJson(compact);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->dump(), pretty);
}

/** A visited struct over every shape the field codec handles. */
struct Sample
{
    std::uint32_t small = 0;
    std::int64_t wide = 0;
    std::uint8_t tiny = 0;
    double real = 0.0;
    std::string name;
    std::vector<double> list;
    std::array<std::uint16_t, 2> pair{};

    template <FieldsOf<Sample> S, typename Visit>
    friend constexpr void
    forEachField(S &self, Visit &&visit)
    {
        auto &[small, wide, tiny, real, name, list, pair] = self;
        visit("small", small);
        visit("wide", wide);
        visit("tiny", tiny);
        visit("real", real);
        visit("name", name);
        visit("list", list);
        visit("pair", pair);
    }
};

/** The field codec's encoding of @p value. */
template <typename T>
std::string
encodeFields(const T &value)
{
    std::string text;
    JsonWriter writer(text);
    fieldsToJson(writer, value);
    return text;
}

/** Whether the field codec decodes @p text (a whole document). */
template <typename T>
bool
decodes(const std::string &text, T &out)
{
    JsonReader reader(text);
    return fieldsFromJson(reader, out) && reader.atEnd();
}

/** A valid Sample document with member @p name's value replaced by
 *  @p value (appended as a duplicate when @p name is new). */
std::string
sampleWith(const std::string &member)
{
    return "{\"list\":[\"0x1p+0\",\"-0x1.8p-3\"],\"name\":\"n\","
           "\"pair\":[\"1\",\"2\"],\"real\":\"0x1p+0\","
           "\"small\":\"7\",\"tiny\":\"8\",\"wide\":\"-9\"" +
           (member.empty() ? std::string() : "," + member) + "}";
}

TEST(JsonPins, FieldEncodingIsPinned)
{
    Sample sample;
    sample.small = 4294967295u;
    sample.wide = std::numeric_limits<std::int64_t>::min();
    sample.tiny = 255;
    sample.real = -0x1.8p-1070;
    sample.name = "a \"b\"\n";
    sample.list = {0.1, -0.0, 1e300};
    sample.pair = {65535, 0};
    const std::string text = encodeFields(sample);
    EXPECT_EQ(text,
              "{\"list\":[\"0x1.999999999999ap-4\",\"-0x0p+0\","
              "\"0x1.7e43c8800759cp+996\"],\"name\":\"a \\\"b\\\"\\n\","
              "\"pair\":[\"65535\",\"0\"],\"real\":"
              "\"-0x0.0000000000018p-1022\",\"small\":\"4294967295\","
              "\"tiny\":\"255\",\"wide\":\"-9223372036854775808\"}");
    Sample back;
    ASSERT_TRUE(decodes(text, back));
    EXPECT_EQ(encodeFields(back), text);
    EXPECT_TRUE(std::signbit(back.list[1]));
}

TEST(JsonPins, FieldDecodeVerdictsArePinned)
{
    struct Case
    {
        std::string text;
        bool accepted;
    };
    const Case cases[] = {
        {sampleWith(""), true},
        // Unknown members are skipped, whatever they hold.
        {sampleWith("\"zz\":{\"a\":[1,null,true,\"\\u0041\"]}"), true},
        // The last of duplicate members wins.
        {sampleWith("\"small\":\"8\""), true},
        {sampleWith("\"small\":\"x\""), false},
        {"{\"small\":\"x\"," + sampleWith("").substr(1), true},
        // Every member is required.
        {"{\"list\":[],\"name\":\"n\",\"pair\":[\"1\",\"2\"],"
         "\"real\":\"0x1p+0\",\"small\":\"7\",\"tiny\":\"8\"}",
         false},
        {"{}", false},
        {"[]", false},
        {"\"x\"", false},
        {"null", false},
        // Integers: decimal strings in range, nothing else.
        {sampleWith("\"small\":\"4294967296\""), false},
        {sampleWith("\"small\":\"-1\""), false},
        {sampleWith("\"small\":\"+1\""), false},
        {sampleWith("\"small\":\" 1\""), false},
        {sampleWith("\"small\":\"1 \""), false},
        {sampleWith("\"small\":\"01\""), true},
        {sampleWith("\"small\":\"\""), false},
        {sampleWith("\"small\":7"), false},
        {sampleWith("\"tiny\":\"256\""), false},
        {sampleWith("\"wide\":\"-9223372036854775809\""), false},
        {sampleWith("\"wide\":\"0x10\""), false},
        // Doubles: whatever strtod consumes whole, as a string.
        {sampleWith("\"real\":\"0x1.8p\""), false},
        {sampleWith("\"real\":\"0x\""), false},
        {sampleWith("\"real\":\"\""), false},
        {sampleWith("\"real\":\"0x1p+0 \""), false},
        {sampleWith("\"real\":\" 0x1p+0\""), true},
        {sampleWith("\"real\":\"+0x1p+1\""), true},
        {sampleWith("\"real\":\"0X1P+1\""), true},
        {sampleWith("\"real\":\"1.5\""), true},
        {sampleWith("\"real\":\"1e-400\""), true},
        {sampleWith("\"real\":\"inf\""), true},
        {sampleWith("\"real\":\"nan\""), true},
        {sampleWith("\"real\":\"0x1p+0\\u0000\""), false},
        {sampleWith("\"real\":\"0x1.fffffffffffffffp+0\""), true},
        {sampleWith("\"real\":\"0x1p+99999\""), true},
        {sampleWith("\"real\":1.5"), false},
        {sampleWith("\"real\":[\"0x1p+0\"]"), false},
        // Arrays: the right shape and length.
        {sampleWith("\"pair\":[\"1\"]"), false},
        {sampleWith("\"pair\":[\"1\",\"2\",\"3\"]"), false},
        {sampleWith("\"pair\":[\"1\",\"65536\"]"), false},
        {sampleWith("\"pair\":{}"), false},
        {sampleWith("\"list\":[]"), true},
        {sampleWith("\"list\":[\"0x1p+0\",7]"), false},
        {sampleWith("\"list\":\"0x1p+0\""), false},
        // Strings: escapes decoded, non-strings refused.
        {sampleWith("\"name\":\"\\u00e9\\t\""), true},
        {sampleWith("\"name\":5"), false},
        {sampleWith("\"name\":null"), false},
        // Keys match after unescaping.
        {sampleWith("\"\\u0073mall\":\"x\""), false},
        // Syntax errors anywhere fail the document.
        {sampleWith("\"zz\":[1,]"), false},
        {sampleWith("") + " x", false},
    };
    for (const Case &c : cases) {
        Sample out;
        EXPECT_EQ(decodes(c.text, out), c.accepted) << c.text;
    }

    Sample out;
    ASSERT_TRUE(decodes(sampleWith("\"small\":\"8\""), out));
    EXPECT_EQ(out.small, 8u);
    ASSERT_TRUE(decodes(sampleWith("\"real\":\" 0x1p+0\""), out));
    EXPECT_EQ(out.real, 1.0);
    ASSERT_TRUE(decodes(sampleWith("\"name\":\"\\u00e9\\t\""), out));
    EXPECT_EQ(out.name, "\xe9\t");
}

TEST(JsonPins, HexfloatDecodeMatchesStrtodBitForBit)
{
    // decodeHexDouble() reads the "%a" spelling itself and leaves
    // every other spelling to strtod; both must give strtod's bits.
    Rng rng(0x4e7);
    std::vector<double> values = {0.0, -0.0, 5e-324, -5e-324,
                                  0x1p-1022, 0x1.fffffffffffffp-1023,
                                  0x1.fffffffffffffp+1023, 1.0, -2.5};
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = rng.next();
        // Every exponent, with subnormals and zero mantissas often.
        const std::uint64_t shaped =
            i % 4 == 0 ? bits & 0x800fffffffffffffull
            : i % 4 == 1 ? bits & 0xfff0000000000000ull
                         : bits;
        values.push_back(std::bit_cast<double>(shaped));
    }
    for (double value : values) {
        if (!std::isfinite(value))
            continue;
        const std::string text = encodeHexDouble(value);
        double decoded = 0.0;
        ASSERT_TRUE(decodeHexDouble(text, decoded)) << text;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(decoded),
                  std::bit_cast<std::uint64_t>(value))
            << text;
    }
    // Spellings "%a" never prints still decode as strtod does.
    for (const char *text :
         {"0x1.8p+1", "0X1.8P+1", "0x1.8p1", "0x3p+0", "0x1.80p+1",
          "0x0.8p-1021", "0x1p-1074", "0x1p+1024", "0x0p+5",
          "0x1.00000000000008p+0", "0x1.fffffffffffff8p+0", "1.5e3",
          "-0x1p-1", "0x1.ABCp+2"}) {
        double decoded = 0.0;
        ASSERT_TRUE(decodeHexDouble(text, decoded)) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded),
                  std::bit_cast<std::uint64_t>(std::strtod(text, nullptr)))
            << text;
    }
}

TEST(JsonPins, EveryTruncationOfARecordIsRejected)
{
    sim::PerfResult perf;
    perf.configName = "cfg";
    perf.execSeconds = 1.0 / 3.0;
    perf.instrs[3] = 0xfedcba9876543210ull;
    const std::string text = encodeFields(perf);
    sim::PerfResult out;
    ASSERT_TRUE(decodes(text, out));
    EXPECT_TRUE(out == perf);
    for (std::size_t len = 0; len < text.size(); ++len) {
        ASSERT_FALSE(decodes(text.substr(0, len), out)) << len;
        ASSERT_FALSE(parseJson(text.substr(0, len)).has_value()) << len;
    }
}

} // namespace
