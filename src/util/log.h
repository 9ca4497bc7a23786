// Lightweight leveled logging with a wall-clock stopwatch.
#pragma once

#include <chrono>
#include <string>

namespace xs::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Global minimum level; messages below it are dropped. Initialized from the
// XS_LOG environment variable (debug|info|warn|error; default info);
// set_log_level() overrides.
void set_log_level(LogLevel level);
LogLevel log_level();

// Prefix stamped on every message after the level tag. Sweep worker
// processes set "[w<pid>] " so interleaved coordinator/worker stderr stays
// attributable.
void set_log_prefix(const std::string& prefix);

void log(LogLevel level, const std::string& message);

inline void log_debug(const std::string& m) { log(LogLevel::kDebug, m); }
inline void log_info(const std::string& m) { log(LogLevel::kInfo, m); }
inline void log_warn(const std::string& m) { log(LogLevel::kWarn, m); }
inline void log_error(const std::string& m) { log(LogLevel::kError, m); }

// Debug logging whose level check short-circuits message construction when
// XS_LOG is above debug: the message expression is then never evaluated.
#define XS_DLOG(msg)                                                \
    do {                                                            \
        if (::xs::util::log_level() <= ::xs::util::LogLevel::kDebug) \
            ::xs::util::log_debug(msg);                             \
    } while (0)

// Wall-clock stopwatch for coarse phase timing in trainers and benches.
class Stopwatch {
public:
    Stopwatch() : start_(clock::now()) {}

    void reset() { start_ = clock::now(); }

    double seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

}  // namespace xs::util
