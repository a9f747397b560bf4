#include "common/flags.h"

#include "gtest/gtest.h"

namespace gks {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, PositionalAndFlags) {
  FlagParser flags = Parse({"search", "index.gksidx", "--s=2", "--top", "5"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"search", "index.gksidx"}));
  EXPECT_EQ(flags.GetInt("s", 1), 2);
  EXPECT_EQ(flags.GetInt("top", 0), 5);
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
}

TEST(FlagsTest, BoolForms) {
  FlagParser flags = Parse({"--refine", "--verbose=true", "--quiet=false"});
  EXPECT_TRUE(flags.GetBool("refine"));
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("quiet"));
  EXPECT_FALSE(flags.GetBool("missing"));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagsTest, StringsAndDoubles) {
  FlagParser flags = Parse({"--name=hello world", "--scale=0.25"});
  EXPECT_EQ(flags.GetString("name", ""), "hello world");
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.25);
}

TEST(FlagsTest, ValidateRejectsUnknown) {
  FlagParser flags = Parse({"--good=1", "--oops=2"});
  EXPECT_TRUE(flags.Validate({"good", "oops"}).ok());
  Status status = flags.Validate({"good"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("oops"), std::string::npos);
}

TEST(FlagsTest, CountFlagsAreBounded) {
  FlagParser flags = Parse({"--n=-1", "--m=1025", "--w=two", "--ok=3"});
  for (const char* name : {"n", "m", "w"}) {
    Status status = flags.ValidateCounts({"ok", name});
    ASSERT_FALSE(status.ok()) << name;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find(std::string("--") + name),
              std::string::npos)
        << status.ToString();
  }
  ASSERT_EQ(kMaxCountFlag + 1, 1025);  // "--m" above is exactly cap + 1
  EXPECT_TRUE(flags.ValidateCounts({"ok", "missing"}).ok());
}

TEST(FlagsTest, BareFlagBeforePositionalNeedsEquals) {
  // `--flag value` consumes the value; the documented workaround is
  // `--flag=...` when the next token is positional.
  FlagParser flags = Parse({"--flag", "positional"});
  EXPECT_EQ(flags.GetString("flag", ""), "positional");
  EXPECT_TRUE(flags.positional().empty());
}

}  // namespace
}  // namespace gks
