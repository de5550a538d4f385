#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/units.h"

namespace polardraw {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, CsvRoundtrip) {
  Table t({"h1", "h2"});
  t.add_row({"a", "b"});
  t.add_row({"c", "d"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "h1,h2\na,b\nc,d\n");
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(AsciiPlot, MarksExtremes) {
  const auto art = ascii_plot({{0.0, 0.0}, {1.0, 1.0}}, 10, 5);
  ASSERT_FALSE(art.empty());
  // Top-right and bottom-left must be marked (y axis renders top-down).
  std::istringstream is(art);
  std::string first, line, last;
  std::getline(is, first);
  last = first;
  while (std::getline(is, line)) last = line;
  EXPECT_EQ(first.back(), '*');
  EXPECT_EQ(last.front(), '*');
}

TEST(AsciiPlot, DegenerateInputsSafe) {
  EXPECT_TRUE(ascii_plot({}).empty());
  EXPECT_FALSE(ascii_plot({{1.0, 1.0}}).empty());  // single point plots
  EXPECT_TRUE(ascii_plot({{0, 0}, {1, 1}}, 1, 1).empty());
}

TEST(Units, DbmRoundtrip) {
  EXPECT_NEAR(mw_to_dbm(1.0), 0.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(100.0), 20.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(-30.0), 0.001, 1e-12);
  for (double dbm : {-60.0, -20.0, 0.0, 17.0}) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
}

TEST(Units, ZeroPowerClampsNotInf) {
  EXPECT_EQ(mw_to_dbm(0.0), -150.0);
  EXPECT_EQ(mw_to_dbm(-1.0), -150.0);
  EXPECT_EQ(mw_to_dbm(1e-30), -150.0);
}

TEST(Units, RatioDb) {
  EXPECT_NEAR(db_to_ratio(3.0103), 2.0, 1e-4);
  EXPECT_NEAR(ratio_to_db(0.5), -3.0103, 1e-4);
}

}  // namespace
}  // namespace polardraw
