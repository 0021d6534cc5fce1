/**
 * @file
 * Unit tests for the CLI option parser.
 */

#include <gtest/gtest.h>

#include "src/util/cli.h"

namespace rhtm
{
namespace
{

CliOptions
parse(std::vector<std::string> tokens)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(tokens);
    argv.push_back(const_cast<char *>("prog"));
    for (auto &s : storage)
        argv.push_back(const_cast<char *>(s.c_str()));
    return CliOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, ParsesKeyValue)
{
    auto opts = parse({"--threads=8", "--mutation=40"});
    EXPECT_EQ(opts.getInt("threads", 0), 8);
    EXPECT_EQ(opts.getInt("mutation", 0), 40);
}

TEST(CliTest, BareFlagIsOne)
{
    auto opts = parse({"--verbose"});
    EXPECT_TRUE(opts.has("verbose"));
    EXPECT_EQ(opts.getInt("verbose", 0), 1);
}

TEST(CliTest, MissingKeyGivesDefault)
{
    auto opts = parse({});
    EXPECT_EQ(opts.getInt("threads", 4), 4);
    EXPECT_EQ(opts.getString("algo", "rh-norec"), "rh-norec");
    EXPECT_DOUBLE_EQ(opts.getDouble("prob", 0.5), 0.5);
}

TEST(CliTest, MalformedIntGivesDefault)
{
    auto opts = parse({"--threads=abc"});
    EXPECT_EQ(opts.getInt("threads", 4), 4);
}

TEST(CliTest, DoubleParses)
{
    auto opts = parse({"--prob=0.125"});
    EXPECT_DOUBLE_EQ(opts.getDouble("prob", 0), 0.125);
}

TEST(CliTest, IntListParses)
{
    auto opts = parse({"--threads=1,2,4,8"});
    auto v = opts.getIntList("threads", {});
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[3], 8);
}

TEST(CliTest, IntListDefaultWhenAbsent)
{
    auto opts = parse({});
    auto v = opts.getIntList("threads", {1, 2});
    ASSERT_EQ(v.size(), 2u);
}

TEST(CliTest, NonOptionTokensAreErrors)
{
    auto opts = parse({"stray", "--ok=1"});
    ASSERT_EQ(opts.errors().size(), 1u);
    EXPECT_EQ(opts.errors()[0], "stray");
}

TEST(CliTest, KeysListsEveryFlagOnce)
{
    auto opts = parse({"--seed=3", "--verbose", "stray", "--seed=4"});
    EXPECT_EQ(opts.keys(), (std::vector<std::string>{"seed", "verbose"}));
}

TEST(CliTest, LastDuplicateWins)
{
    auto opts = parse({"--n=1", "--n=2"});
    EXPECT_EQ(opts.getInt("n", 0), 2);
}

} // namespace
} // namespace rhtm
