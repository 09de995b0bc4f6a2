/**
 * @file
 * Tests for the table formatter.
 */

#include <gtest/gtest.h>

#include "stats/table.hh"

using namespace schedtask;

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(TextTable, NumFormatsDecimals)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, PctShowsSign)
{
    EXPECT_EQ(TextTable::pct(11.4), "+11.4");
    EXPECT_EQ(TextTable::pct(-51.0), "-51.0");
}

TEST(TextTable, RowCountTracksRows)
{
    TextTable t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"x"});
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(TextTableDeath, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}
