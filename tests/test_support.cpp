// Unit tests for the support module: contracts, table printer, CLI parser,
// JSON writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "support/cli.h"
#include "support/contracts.h"
#include "support/json.h"
#include "support/table.h"
#include "support/timer.h"

namespace rumor {
namespace {

TEST(Contracts, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DG_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(DG_REQUIRE(true, "fine"));
}

TEST(Contracts, AssertThrowsLogicError) {
  EXPECT_THROW(DG_ASSERT(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(DG_ASSERT(true, "fine"));
}

TEST(Contracts, MessagesCarryContext) {
  try {
    DG_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("math broke"), std::string::npos);
  }
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::cell(1.5)});
  t.add_row({"b", Table::cell(static_cast<std::int64_t>(42))});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);

  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RowWidthMismatchRejected) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CellFormatsSpecials) {
  EXPECT_EQ(Table::cell(std::nan("")), "n/a");
  EXPECT_EQ(Table::cell(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Table::cell(1234.5678, 6), "1234.57");
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=128", "--rho", "0.5", "--verbose"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("rho", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_TRUE(cli.has("n"));
  EXPECT_FALSE(cli.has("absent"));
}

TEST(Cli, NumbersAreWholeTokens) {
  const char* argv[] = {"prog",      "--trials", "3abc",  "--failure", "0.1x", "--rate",
                        "abc",       "--big",    "4294967298", "--huge", "9223372036854775808",
                        "--exp",     "1e-3",     "--neg",  "-7"};
  Cli cli(15, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("trials", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("failure", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("rate", 1.0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("huge", 0), std::invalid_argument);  // past int64
  EXPECT_THROW(cli.get_int("exp", 0), std::invalid_argument);   // not an integer
  EXPECT_EQ(cli.get_int("big", 0), 4294967298);
  EXPECT_DOUBLE_EQ(cli.get_double("exp", 0.0), 1e-3);
  EXPECT_EQ(cli.get_int("neg", 0), -7);
  try {
    cli.get_double("failure", 0.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--failure"), std::string::npos) << e.what();
  }
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Cli(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Json, NumberRoundTripsAndHandlesSpecials) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1e9), "1e+09");
  EXPECT_EQ(std::strtod(json_number(0.1).c_str(), nullptr), 0.1);
  const double awkward = 5.468394823904823;
  EXPECT_EQ(std::strtod(json_number(awkward).c_str(), nullptr), awkward);
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterProducesWellFormedNestedValue) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("name", "x")
      .field("count", static_cast<std::int64_t>(3))
      .field("ok", true);
  json.key("values").begin_array().value(1.5).value(static_cast<std::int64_t>(2)).null().end_array();
  json.key("nested").begin_object().field("d", 0.25).end_object();
  json.end_object();
  EXPECT_EQ(os.str(),
            "{\"name\":\"x\",\"count\":3,\"ok\":true,"
            "\"values\":[1.5,2,null],\"nested\":{\"d\":0.25}}");
}

TEST(Json, WriterRejectsMisuse) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  EXPECT_THROW(json.value(1.0), std::invalid_argument);  // member without key
  EXPECT_THROW(json.end_array(), std::invalid_argument);
  JsonWriter arr(os);
  arr.begin_array();
  EXPECT_THROW(arr.key("k"), std::invalid_argument);  // key inside array
}

TEST(Cli, ExposesAllEntries) {
  const char* argv[] = {"prog", "--n=128", "--flag"};
  Cli cli(3, const_cast<char**>(argv));
  ASSERT_EQ(cli.entries().size(), 2u);
  EXPECT_EQ(cli.entries().at("n"), "128");
  EXPECT_EQ(cli.entries().at("flag"), "true");
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_LT(timer.seconds(), 5.0);
}

}  // namespace
}  // namespace rumor
