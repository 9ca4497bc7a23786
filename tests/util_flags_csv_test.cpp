#include "util/csv.h"
#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace xs::util {
namespace {

Flags make_flags(std::vector<std::string> args) {
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "prog");
    std::vector<char*> argv;
    for (auto& s : storage) argv.push_back(s.data());
    return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
    const Flags f = make_flags({"--alpha=3", "--name=hello"});
    EXPECT_EQ(f.get_int("alpha", 0), 3);
    EXPECT_EQ(f.get_string("name", ""), "hello");
}

TEST(Flags, SpaceForm) {
    const Flags f = make_flags({"--alpha", "42"});
    EXPECT_EQ(f.get_int("alpha", 0), 42);
}

TEST(Flags, BareFlagIsTrue) {
    const Flags f = make_flags({"--verbose"});
    EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, DefaultsWhenAbsent) {
    const Flags f = make_flags({});
    EXPECT_EQ(f.get_int("missing", 9), 9);
    EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
    EXPECT_FALSE(f.get_bool("missing", false));
    EXPECT_EQ(f.get_string("missing", "d"), "d");
}

// A value the whole of which does not parse throws, naming its flag,
// instead of running on what strtod or strtoll made of its prefix.
void expect_malformed(const Flags& f, void (*read)(const Flags&),
                      const std::string& flag) {
    try {
        read(f);
        ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << e.what();
    }
}

TEST(Flags, DoubleParsing) {
    const Flags f = make_flags({"--rate=0.125", "--bad=0.1x", "--empty="});
    EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.125);
    expect_malformed(f, [](const Flags& g) { g.get_double("bad", 0.0); },
                     "--bad");
    expect_malformed(f, [](const Flags& g) { g.get_double("empty", 0.0); },
                     "--empty");
}

TEST(Flags, IntList) {
    const Flags f = make_flags(
        {"--sizes=16,32,64", "--bad=16,3x", "--epochs=5x", "--half=2.5"});
    const auto v = f.get_int_list("sizes", {});
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 16);
    EXPECT_EQ(v[1], 32);
    EXPECT_EQ(v[2], 64);
    expect_malformed(f, [](const Flags& g) { g.get_int_list("bad", {}); },
                     "--bad");
    expect_malformed(f, [](const Flags& g) { g.get_int("epochs", 0); },
                     "--epochs");
    expect_malformed(f, [](const Flags& g) { g.get_int("half", 0); },
                     "--half");
}

TEST(Flags, IntListDefault) {
    const Flags f = make_flags({});
    const auto v = f.get_int_list("sizes", {8});
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 8);
}

TEST(Flags, Positional) {
    const Flags f = make_flags({"input.txt", "--x=1", "more"});
    ASSERT_EQ(f.positional().size(), 2u);
    EXPECT_EQ(f.positional()[0], "input.txt");
    EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, BoolExplicitValues) {
    const Flags f = make_flags({"--a=true", "--b=false", "--c=1", "--d=no",
                                "--e=0", "--f=yes", "--resume=ture"});
    EXPECT_TRUE(f.get_bool("a", false));
    EXPECT_FALSE(f.get_bool("b", true));
    EXPECT_TRUE(f.get_bool("c", false));
    EXPECT_FALSE(f.get_bool("d", true));
    EXPECT_FALSE(f.get_bool("e", true));
    EXPECT_TRUE(f.get_bool("f", false));
    // A typo must not read as false: --resume=ture would start afresh and
    // truncate the manifest.
    expect_malformed(f, [](const Flags& g) { g.get_bool("resume", false); },
                     "--resume");
}

// A flag that no code reads (misspelt, or retired) fails instead of being
// silently ignored, and the error names every such flag.
TEST(Flags, CheckAllReadNamesEveryUnreadFlag) {
    const Flags f =
        make_flags({"--alpha=1", "--shards=2", "--sigma", "0.2", "--beta"});
    EXPECT_EQ(f.get_int("alpha", 0), 1);
    EXPECT_TRUE(f.has("beta"));
    EXPECT_EQ(f.get_int("absent", 4), 4);  // reading an absent name is fine
    try {
        f.check_all_read();
        ADD_FAILURE() << "unread flags were accepted";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--shards"), std::string::npos) << what;
        EXPECT_NE(what.find("--sigma"), std::string::npos) << what;
        EXPECT_EQ(what.find("--alpha"), std::string::npos) << what;
        EXPECT_EQ(what.find("--beta"), std::string::npos) << what;
    }
    f.get_double("sigma", 0.0);
    f.get_string("shards", "");
    EXPECT_NO_THROW(f.check_all_read());
}

TEST(RunMain, AnEscapingExceptionExitsOne) {
    char name[] = "/some/dir/prog";
    char* argv[] = {name, nullptr};
    EXPECT_EQ(run_main(1, argv, [](int, char**) { return 3; }), 3);
    EXPECT_EQ(run_main(1, argv,
                       [](int, char**) -> int {
                           throw std::invalid_argument("unknown flag(s): --x");
                       }),
              1);
}

TEST(Csv, WritesHeaderAndRows) {
    const std::string path = testing::TempDir() + "/xs_csv_test.csv";
    {
        CsvWriter csv(path, {"a", "b", "c"});
        csv.row({"1", "2.5", "x"});
        csv.row({"q", "7", "8"});
        EXPECT_TRUE(csv.ok());
    }
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "a,b,c");
    std::getline(is, line);
    EXPECT_EQ(line, "1,2.5,x");
    std::getline(is, line);
    EXPECT_EQ(line, "q,7,8");
    std::remove(path.c_str());
}

// Display width of a UTF-8 line: continuation bytes take no column.
std::size_t display_width(const std::string& line) {
    std::size_t n = 0;
    for (const unsigned char ch : line)
        if ((ch & 0xC0) != 0x80) ++n;
    return n;
}

TEST(TextTable, AlignsColumns) {
    TextTable t({"G (uS)", "value"});
    t.add_row({"x", "1"});
    t.add_row({"longer", "22±1"});
    const std::string s = t.str();
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("|---"), std::string::npos);  // header separator
    // Header, separator and every row end at the same column, on a '|'.
    std::istringstream lines(s);
    std::string line;
    std::vector<std::size_t> widths;
    while (std::getline(lines, line)) {
        widths.push_back(display_width(line));
        EXPECT_EQ(line.back(), '|') << line;
    }
    ASSERT_EQ(widths.size(), 4u);
    for (const std::size_t w : widths) EXPECT_EQ(w, widths.front()) << s;
}

TEST(TextTable, PadsShortRows) {
    TextTable t({"a", "b", "c"});
    t.add_row({"only"});
    EXPECT_NO_THROW(t.str());
}

TEST(TextTable, RejectsRowsLongerThanTheHeader) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Fmt, FixedPrecision) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 1), "2.0");
    EXPECT_EQ(fmt(-0.5, 3), "-0.500");
}

}  // namespace
}  // namespace xs::util
