/**
 * @file
 * Tests for the text-table renderer, cell formatters and CSV writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/csv.hh"
#include "common/table.hh"

namespace uvmasync
{
namespace
{

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::string out = t.toString();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, ColumnsAlign)
{
    TextTable t({"k", "v"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "100"});
    std::string out = t.toString();
    // Every rendered line has the same width.
    std::istringstream iss(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(iss, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TextTable, SeparatorRows)
{
    TextTable t({"a"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    // Border, header, border, x, separator, y, border.
    std::string out = t.toString();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 7);
    EXPECT_NE(out.find("+---"), std::string::npos);
}

TEST(TextTable, TrailingSeparatorPrintsOneClosingBorder)
{
    TextTable t({"a"});
    t.addRow({"x"});
    t.addSeparator();
    EXPECT_EQ(t.toString(), "+---+\n"
                            "| a |\n"
                            "+---+\n"
                            "| x |\n"
                            "+---+\n");
}

TEST(Formatters, FmtDouble)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(-0.5, 1), "-0.5");
}

TEST(Formatters, FmtPercentSigned)
{
    EXPECT_EQ(fmtPercent(0.21), "+21.00%");
    EXPECT_EQ(fmtPercent(-0.0441), "-4.41%");
}

TEST(Formatters, FmtTimeUnits)
{
    EXPECT_EQ(fmtTime(1500.0), "1.50 ns");
    EXPECT_EQ(fmtTime(2.5e9), "2.50 ms");
    EXPECT_EQ(fmtTime(3e12), "3.00 s");
    EXPECT_EQ(fmtTime(0.5), "0 ps");
}

TEST(Formatters, FmtBytesUnits)
{
    EXPECT_EQ(fmtBytes(512.0), "512 B");
    EXPECT_EQ(fmtBytes(2048.0), "2.00 KiB");
    EXPECT_EQ(fmtBytes(3.0 * 1024 * 1024 * 1024), "3.00 GiB");
}

TEST(Formatters, FmtCountSuffixes)
{
    EXPECT_EQ(fmtCount(999.0), "999");
    EXPECT_EQ(fmtCount(1500.0), "1.50K");
    EXPECT_EQ(fmtCount(2.5e9), "2.50G");
}

TEST(Csv, PlainRow)
{
    std::ostringstream oss;
    CsvWriter w(oss);
    w.writeRow({"a", "b", "c"});
    EXPECT_EQ(oss.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters)
{
    std::ostringstream oss;
    CsvWriter w(oss);
    w.writeRow({"has,comma", "has\"quote", "plain"});
    EXPECT_EQ(oss.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(Csv, EscapeIdempotentOnPlain)
{
    EXPECT_EQ(CsvWriter::escape("simple"), "simple");
    EXPECT_EQ(CsvWriter::escape("with\nnewline"),
              "\"with\nnewline\"");
}

} // namespace
} // namespace uvmasync
