#include "util/flags.h"

#include "util/log.h"

#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace xs::util {

Flags::Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "true";
        }
    }
}

const std::string* Flags::find(const std::string& name) const {
    read_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::get_string(const std::string& name, const std::string& def) const {
    const std::string* v = find(name);
    return v ? *v : def;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
    const std::string* v = find(name);
    return v ? parse_int(*v, "--" + name) : def;
}

double Flags::get_double(const std::string& name, double def) const {
    const std::string* v = find(name);
    return v ? parse_double(*v, "--" + name) : def;
}

bool Flags::get_bool(const std::string& name, bool def) const {
    const std::string* v = find(name);
    return v ? parse_bool(*v, "--" + name) : def;
}

std::vector<std::int64_t> Flags::get_int_list(const std::string& name,
                                              const std::vector<std::int64_t>& def) const {
    const std::string* v = find(name);
    if (!v) return def;
    std::vector<std::int64_t> out;
    std::stringstream ss(*v);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(parse_int(item, "--" + name));
    }
    return out;
}

void Flags::check_all_read() const {
    std::string unread;
    for (const auto& [name, unused] : values_) {
        (void)unused;
        if (read_.count(name) == 0) unread += " --" + name;
    }
    if (!unread.empty())
        throw std::invalid_argument("unknown flag(s):" + unread);
}

std::int64_t parse_int(const std::string& text, const std::string& name) {
    char* end = nullptr;
    const std::int64_t v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size())
        throw std::invalid_argument(name + ": malformed integer '" + text + "'");
    return v;
}

double parse_double(const std::string& text, const std::string& name) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        throw std::invalid_argument(name + ": malformed number '" + text + "'");
    return v;
}

bool parse_bool(const std::string& text, const std::string& name) {
    if (text == "true" || text == "1" || text == "yes") return true;
    if (text == "false" || text == "0" || text == "no") return false;
    throw std::invalid_argument(name + ": malformed bool '" + text +
                                "' (true, false, 1, 0, yes or no)");
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
    try {
        return body(argc, argv);
    } catch (const std::exception& e) {
        std::string name = argc > 0 ? argv[0] : "";
        name = name.substr(name.find_last_of('/') + 1);
        log_error(name + ": " + e.what());
        return 1;
    }
}

}  // namespace xs::util
