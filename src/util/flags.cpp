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
    return v ? std::strtoll(v->c_str(), nullptr, 10) : def;
}

double Flags::get_double(const std::string& name, double def) const {
    const std::string* v = find(name);
    return v ? std::strtod(v->c_str(), nullptr) : def;
}

bool Flags::get_bool(const std::string& name, bool def) const {
    const std::string* v = find(name);
    if (!v) return def;
    return *v == "true" || *v == "1" || *v == "yes";
}

std::vector<std::int64_t> Flags::get_int_list(const std::string& name,
                                              const std::vector<std::int64_t>& def) const {
    const std::string* v = find(name);
    if (!v) return def;
    std::vector<std::int64_t> out;
    std::stringstream ss(*v);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(std::strtoll(item.c_str(), nullptr, 10));
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
