/**
 * @file
 * Tests for the tools' shared `--key value` parser (tools/args.hh):
 * a bare switch never takes the following word as its value.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "args.hh"

namespace uvmasync
{
namespace
{

/** Parse @p words as the arguments after a verb. */
Args
parse(std::vector<std::string> words)
{
    std::vector<char *> argv;
    for (std::string &word : words)
        argv.push_back(word.data());
    return Args(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(Args, BareSwitchLeavesTheOperationPositional)
{
    Args args = parse({"--no-wait", "stream", "--socket", "S",
                       "--handle", "H"});
    EXPECT_TRUE(args.has("no-wait"));
    EXPECT_EQ(args.get("no-wait"), "true");
    ASSERT_EQ(args.positional(), std::vector<std::string>{"stream"});
    EXPECT_EQ(args.get("socket"), "S");
    EXPECT_EQ(args.get("handle"), "H");
}

TEST(Args, RepairLeavesThePathPositional)
{
    Args args = parse({"--repair", "state/dir", "journal.jsonl"});
    EXPECT_TRUE(args.has("repair"));
    EXPECT_EQ(args.positional(),
              (std::vector<std::string>{"state/dir", "journal.jsonl"}));
}

TEST(Args, ValuedFlagsStillTakeTheNextWord)
{
    Args args = parse({"--csv", "--jobs", "4", "--runs", "-1", "run"});
    EXPECT_TRUE(args.has("csv"));
    EXPECT_EQ(args.get("jobs"), "4");
    EXPECT_EQ(args.get("runs"), "-1");
    EXPECT_EQ(args.positional(), std::vector<std::string>{"run"});
}

} // namespace
} // namespace uvmasync
