// Strings / table / CLI / plot utility tests.
#include <gtest/gtest.h>

#include "support/ascii_plot.h"
#include "support/cli.h"
#include "support/strings.h"
#include "support/table.h"

namespace prose {
namespace {

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("MiXeD_09"), "mixed_09"); }

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_ws("  a  b\tc "), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("MPAS", "mpas"));
  EXPECT_FALSE(iequals("MPAS", "mpas6"));
}

TEST(Strings, JoinAndReplace) {
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(replace_all("x+x+x", "+", "-"), "x-x-x");
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_double(1.946, 2), "1.95");
  EXPECT_EQ(format_percent(0.5625, 1), "56.2%");
  EXPECT_EQ(format_sci(140.0, 2), "1.4e+02");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcdef", 4), "abcdef");  // no truncation
}

TEST(TextTable, RendersAlignedMarkdown) {
  TextTable t({"Model", "Speedup"});
  t.add_row({"MPAS-A", "1.95x"});
  t.add_row({"ADCIRC", "1.12x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Model  | Speedup |"), std::string::npos);
  EXPECT_NE(s.find("| MPAS-A | 1.95x   |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
}

TEST(Csv, EscapesSpecials) {
  CsvWriter w;
  w.add_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(w.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--model=mpas", "--trials", "7",
                        "--verbose", "--no-color", "input.f90"};
  auto flags = CliFlags::parse(7, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_EQ(flags->get_string("model", ""), "mpas");
  EXPECT_EQ(flags->get_int("trials", 0), 7);
  EXPECT_TRUE(flags->get_bool("verbose", false));
  EXPECT_FALSE(flags->get_bool("color", true));
  EXPECT_EQ(flags->get_double("missing", 2.5), 2.5);
  ASSERT_EQ(flags->positional().size(), 1u);
  EXPECT_EQ(flags->positional()[0], "input.f90");
}

TEST(Cli, CheckPassesWhenEveryArgumentIsTaken) {
  const char* argv[] = {"prog", "--jobs", "4", "--no-metrics", "--ratio=0.5",
                        "in.f90"};
  auto flags = CliFlags::parse(6, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_EQ(flags->get_int("jobs", 1), 4);
  EXPECT_FALSE(flags->get_bool("metrics", true));
  EXPECT_EQ(flags->get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(flags->get_string("unset", "x"), "x");
  EXPECT_TRUE(flags->check(/*max_positional=*/1).is_ok());
}

TEST(Cli, CheckNamesFlagsNeverRead) {
  const char* argv[] = {"prog", "--model", "mom6", "--bogus-flag", "3"};
  auto flags = CliFlags::parse(5, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_EQ(flags->get_string("model", ""), "mom6");
  const Status s = flags->check();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown flag --bogus-flag"), std::string::npos)
      << s.message();
  EXPECT_EQ(s.message().find("model"), std::string::npos) << s.message();
}

TEST(Cli, CheckNamesPositionalsNotTaken) {
  const char* argv[] = {"prog", "first.f90", "stray"};
  auto flags = CliFlags::parse(3, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_TRUE(flags->check(/*max_positional=*/2).is_ok());
  const Status one = flags->check(/*max_positional=*/1);
  EXPECT_FALSE(one.is_ok());
  EXPECT_NE(one.message().find("unexpected argument 'stray'"), std::string::npos)
      << one.message();
  EXPECT_EQ(one.message().find("first.f90"), std::string::npos) << one.message();
  const Status none = flags->check();
  EXPECT_NE(none.message().find("'first.f90'"), std::string::npos) << none.message();
}

TEST(Cli, MalformedValuesFallBackAndAreReported) {
  const char* argv[] = {"prog", "--jobs", "4x", "--hours=", "--rate", "1e999",
                        "--depth", "12", "--diagnose=maybe"};
  auto flags = CliFlags::parse(9, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_EQ(flags->get_int("jobs", 1), 1);
  EXPECT_EQ(flags->get_double("hours", 12.0), 12.0);
  EXPECT_EQ(flags->get_double("rate", 2.0), 2.0);  // out of range
  EXPECT_EQ(flags->get_int("depth", 0), 12);
  EXPECT_TRUE(flags->get_bool("diagnose", true));
  const Status s = flags->check();
  ASSERT_FALSE(s.is_ok());
  for (const char* needle :
       {"--jobs expects an integer, got '4x'", "--hours expects a number, got ''",
        "--rate expects a number, got '1e999'",
        "--diagnose expects a boolean, got 'maybe'"}) {
    EXPECT_NE(s.message().find(needle), std::string::npos) << s.message();
  }
  EXPECT_EQ(s.message().find("depth"), std::string::npos) << s.message();
}

TEST(AsciiScatter, RendersPointsAndGuides) {
  AsciiScatter plot("test", "speedup", "error");
  plot.set_size(40, 10);
  plot.add_point(1.0, 1.0, 'a');
  plot.add_point(2.0, 4.0, 'b');
  plot.add_x_guide(1.0);
  const std::string s = plot.render();
  EXPECT_NE(s.find('a'), std::string::npos);
  EXPECT_NE(s.find('b'), std::string::npos);
  EXPECT_NE(s.find(':'), std::string::npos);  // guide line
}

TEST(AsciiScatter, LogAxisDropsNonpositive) {
  AsciiScatter plot("log", "x", "y");
  plot.set_log_y(true);
  plot.add_point(1.0, 0.0, 'z');  // non-plottable on log axis
  plot.add_point(1.0, 1.0, 'k');
  const std::string s = plot.render();
  EXPECT_NE(s.find("dropped"), std::string::npos);
  EXPECT_NE(s.find('k'), std::string::npos);
}

TEST(AsciiScatter, EmptyPlotHasPlaceholder) {
  AsciiScatter plot("empty", "x", "y");
  EXPECT_NE(plot.render().find("no finite points"), std::string::npos);
}

}  // namespace
}  // namespace prose
