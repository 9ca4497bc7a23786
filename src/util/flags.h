// Minimal command-line flag parser used by the benchmark and example
// binaries: `--name=value` or `--name value`; `--flag` alone sets a bool.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xs::util {

class Flags {
public:
    Flags(int argc, char** argv);

    // has() and every get_*() record `name` as read (check_all_read), so
    // one Flags is read from one thread at a time.
    bool has(const std::string& name) const { return find(name) != nullptr; }

    // The typed getters throw std::invalid_argument naming the flag when its
    // whole value does not parse (parse_int, parse_double, parse_bool).
    std::string get_string(const std::string& name, const std::string& def) const;
    std::int64_t get_int(const std::string& name, std::int64_t def) const;
    double get_double(const std::string& name, double def) const;
    bool get_bool(const std::string& name, bool def) const;

    // Comma-separated list of integers, e.g. --sizes=16,32,64; empty items
    // are skipped.
    std::vector<std::int64_t> get_int_list(const std::string& name,
                                           const std::vector<std::int64_t>& def) const;

    // Positional (non-flag) arguments in order of appearance.
    const std::vector<std::string>& positional() const { return positional_; }

    // Throws std::invalid_argument naming every flag on the command line
    // that no has() or get_*() call has read, so a misspelt or retired flag
    // fails instead of running the default workload. Call it after the
    // program's last read.
    void check_all_read() const;

private:
    // The value of `name`, or nullptr when absent; records `name` as read.
    const std::string* find(const std::string& name) const;

    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> read_;
};

// Checked parsing of one value of the flag or spec key `name`: the whole
// text must parse, so "5x", "O.1" or "ture" throw std::invalid_argument
// naming `name` instead of running a different workload. A bool is true,
// false, 1, 0, yes or no.
std::int64_t parse_int(const std::string& text, const std::string& name);
double parse_double(const std::string& text, const std::string& name);
bool parse_bool(const std::string& text, const std::string& name);

// The body of a command-line program's main(): returns body(argc, argv),
// or logs an exception that escapes it (an unknown flag, a grid no crossbar
// can run, ...) as one error line naming the program and returns 1.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace xs::util
