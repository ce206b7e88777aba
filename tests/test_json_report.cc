/**
 * @file
 * Unit tests for JSON emission.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"

namespace
{

using namespace mmgpu;

TEST(Json, Primitives)
{
    EXPECT_EQ(JsonValue(nullptr).dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteBecomesNull)
{
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(
        JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
        "null");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(),
              "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(JsonValue(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectsHaveDeterministicKeyOrder)
{
    JsonValue object = JsonValue::object();
    object.set("zeta", 1).set("alpha", 2);
    std::string text = object.dump();
    EXPECT_LT(text.find("alpha"), text.find("zeta"));
}

TEST(Json, NestedStructure)
{
    JsonValue root = JsonValue::object();
    JsonValue list = JsonValue::array();
    list.push(1).push("two").push(JsonValue::object());
    root.set("items", std::move(list));
    std::string text = root.dump();
    EXPECT_NE(text.find("\"items\": ["), std::string::npos);
    EXPECT_NE(text.find("\"two\""), std::string::npos);
    EXPECT_NE(text.find("{}"), std::string::npos);
}

TEST(Json, EmptyContainers)
{
    EXPECT_EQ(JsonValue::object().dump(), "{}");
    EXPECT_EQ(JsonValue::array().dump(), "[]");
}

TEST(JsonDeathTest, SetOnNonObjectPanics)
{
    JsonValue array = JsonValue::array();
    EXPECT_DEATH(array.set("k", 1), "non-object");
}

} // namespace
