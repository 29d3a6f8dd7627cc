#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hh"

using namespace streampim;

TEST(Json, BuildsAndDumpsScalars)
{
    EXPECT_EQ(Json().dump(0), "null");
    EXPECT_EQ(Json(true).dump(0), "true");
    EXPECT_EQ(Json(false).dump(0), "false");
    EXPECT_EQ(Json(42).dump(0), "42");
    EXPECT_EQ(Json(2.5).dump(0), "2.5");
    EXPECT_EQ(Json("hi").dump(0), "\"hi\"");
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json o = Json::object();
    o["zeta"] = 1;
    o["alpha"] = 2;
    o["mid"] = 3;
    EXPECT_EQ(o.dump(0), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
    ASSERT_EQ(o.members().size(), 3u);
    EXPECT_EQ(o.members()[0].first, "zeta");
}

TEST(Json, NestedStructure)
{
    Json doc = Json::object();
    doc["name"] = "fig17";
    doc["jobs"] = 4;
    Json cells = Json::array();
    Json c = Json::object();
    c["row"] = "atax";
    c["value"] = 1.25;
    cells.push(std::move(c));
    cells.push(Json::object());
    cells.push(Json::array());
    doc["cells"] = std::move(cells);
    EXPECT_EQ(doc.dump(0), R"({"name":"fig17","jobs":4,"cells":)"
                           R"([{"row":"atax","value":1.25},{},[]]})");
    EXPECT_EQ(doc.dump(2), "{\n"
                           "  \"name\": \"fig17\",\n"
                           "  \"jobs\": 4,\n"
                           "  \"cells\": [\n"
                           "    {\n"
                           "      \"row\": \"atax\",\n"
                           "      \"value\": 1.25\n"
                           "    },\n"
                           "    {},\n"
                           "    []\n"
                           "  ]\n"
                           "}\n");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b\\c\nd").dump(0),
              "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, NonFiniteNumbersRoundTripAsNull)
{
    // JSON has no NaN/Inf tokens; non-finite doubles serialize as
    // null, never as bare tokens that break a reader.
    Json doc = Json::object();
    doc["nan"] = Json(std::nan(""));
    doc["inf"] = Json(std::numeric_limits<double>::infinity());
    doc["neg_inf"] = Json(-std::numeric_limits<double>::infinity());
    doc["ok"] = Json(2.5);
    EXPECT_EQ(doc.dump(0),
              R"({"nan":null,"inf":null,"neg_inf":null,"ok":2.5})");
}
