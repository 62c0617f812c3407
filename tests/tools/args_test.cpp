/**
 * @file
 * Table tests of the tools' strict flag parser (tools/tool_util.h):
 * every malformed command line is a UsageError (exit 2 through
 * runTool), every well-formed one parses to the values the tools
 * read, negative numbers included.
 */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tool_util.h"

namespace
{

using eddie::tools::Args;
using eddie::tools::Flag;
using eddie::tools::UsageError;
using K = eddie::tools::FlagKind;

const std::vector<Flag> &
flags()
{
    static const std::vector<Flag> table = {
        {"em"},
        {"checkpoint", K::Text},
        {"seed", K::Int, 0},
        {"shards", K::Int, 1, 8},
        {"snr", K::Real, -100, 200},
        {"prob", K::Real, 0, 1},
    };
    return table;
}

Args
parse(std::vector<std::string> words)
{
    words.insert(words.begin(), "tool");
    std::vector<char *> argv;
    for (auto &w : words)
        argv.push_back(w.data());
    return Args(int(argv.size()), argv.data(), flags());
}

struct BadCase
{
    std::vector<std::string> words;
    const char *why;
};

TEST(ToolArgs, MalformedCommandLinesAreUsageErrors)
{
    const BadCase cases[] = {
        {{"--bogus"}, "undeclared flag"},
        {{"m", "--em", "--emm"}, "undeclared flag after a good one"},
        {{"--checkpoint"}, "missing value at the end"},
        {{"--checkpoint", "--em"}, "a flag where the value should be"},
        {{"--seed"}, "missing number"},
        {{"--seed", "abc"}, "non-numeric whole number"},
        {{"--seed", "12x"}, "trailing garbage"},
        {{"--seed", "1.5"}, "fraction for a whole number"},
        {{"--seed", ""}, "empty number"},
        {{"--seed", " 7"}, "leading blank"},
        {{"--seed", "-1"}, "below the range"},
        {{"--seed", "99999999999999999999999"}, "overflows long"},
        {{"--shards", "0"}, "below a positive range"},
        {{"--shards", "9"}, "above the range"},
        {{"--snr", "loud"}, "non-numeric real"},
        {{"--snr", "nan"}, "not finite"},
        {{"--snr", "inf"}, "not finite"},
        {{"--snr", "-101"}, "below a negative range"},
        {{"--prob", "1.01"}, "above a probability"},
    };
    for (const BadCase &c : cases)
        EXPECT_THROW(parse(c.words), UsageError) << c.why;
}

TEST(ToolArgs, WellFormedCommandLinesParse)
{
    const Args args = parse({"model", "--snr", "-5", "sha", "--em",
                             "--seed", "7", "--checkpoint", "-",
                             "--prob", "0.25", "--shards", "8"});
    EXPECT_EQ(args.positional(), (std::vector<std::string>{"model",
                                                           "sha"}));
    EXPECT_DOUBLE_EQ(args.getDouble("snr", 30.0), -5.0);
    EXPECT_TRUE(args.has("em"));
    EXPECT_EQ(args.getLong("seed", 42), 7);
    EXPECT_EQ(args.get("checkpoint"), "-");
    EXPECT_DOUBLE_EQ(args.getDouble("prob", 0.0), 0.25);
    EXPECT_EQ(args.getLong("shards", 1), 8);
}

TEST(ToolArgs, AbsentFlagsFallBackAndRepeatsKeepTheLast)
{
    const Args empty = parse({});
    EXPECT_TRUE(empty.positional().empty());
    EXPECT_FALSE(empty.has("em"));
    EXPECT_EQ(empty.get("checkpoint", "none"), "none");
    EXPECT_EQ(empty.getLong("seed", 42), 42);
    EXPECT_DOUBLE_EQ(empty.getDouble("snr", 30.0), 30.0);

    const Args twice = parse({"--seed", "1", "--seed", "2"});
    EXPECT_EQ(twice.getLong("seed", 0), 2);

    // A single dash and a bare "--" are positional, not flags.
    const Args dashes = parse({"-", "--", "-x"});
    EXPECT_EQ(dashes.positional().size(), 3u);
}

TEST(ToolArgs, ReadingAnUndeclaredOrMistypedFlagIsAToolBug)
{
    const Args args = parse({});
    EXPECT_THROW((void)args.has("nope"), std::logic_error);
    EXPECT_THROW((void)args.getLong("snr", 0), std::logic_error);
    EXPECT_THROW((void)args.getDouble("seed", 0.0), std::logic_error);
}

TEST(ToolArgs, RunToolMapsUsageErrorsToExitTwo)
{
    EXPECT_EQ(eddie::tools::runTool("t",
                                    [] {
                                        (void)parse({"--x"});
                                        return 0;
                                    }),
              2);
    EXPECT_EQ(eddie::tools::runTool(
                  "t", []() -> int { throw std::runtime_error("io"); }),
              1);
    EXPECT_EQ(eddie::tools::runTool("t", [] { return 3; }), 3);
}

} // namespace
