/**
 * @file
 * Tests for the logging/formatting utilities and the simulator
 * assertion macro.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"

namespace uvmasync
{
namespace
{

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("plain"), "plain");
    EXPECT_EQ(strfmt("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(strfmt("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
}

TEST(Logging, StrfmtHandlesLongStrings)
{
    std::string big(5000, 'x');
    std::string out = strfmt("<%s>", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 2);
    EXPECT_EQ(out.front(), '<');
    EXPECT_EQ(out.back(), '>');
}

TEST(Logging, LevelRoundTrip)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(before);
}

TEST(Logging, WarnSuppressedWhenSilent)
{
    // Must not crash or emit when silenced; observable behaviour is
    // simply "returns".
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    warn("this warning is suppressed %d", 1);
    inform("this info is suppressed");
    setLogLevel(before);
}

TEST(Logging, InformWritesToStderrOnly)
{
    // stdout carries data only (CSV, tables), so status lines must
    // never interleave with it.
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Inform);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    inform("status %d", 7);
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    setLogLevel(before);
    EXPECT_EQ(out, "");
    EXPECT_EQ(err, "info: status 7\n");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(LoggingDeathTest, AssertMacroFiresWithMessage)
{
    int value = 7;
    EXPECT_DEATH(
        UVMASYNC_ASSERT(value == 8, "value was %d", value),
        "value == 8.*value was 7");
}

TEST(Logging, AssertMacroPassesSilently)
{
    UVMASYNC_ASSERT(1 + 1 == 2, "never printed");
    SUCCEED();
}

} // namespace
} // namespace uvmasync
