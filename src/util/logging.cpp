#include "util/logging.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace drel::util {
namespace {

/// Initial level comes from DREL_LOG_LEVEL (debug|info|warn|error|off,
/// case-insensitive); anything unset or unrecognized keeps the kWarn default.
LogLevel level_from_env() noexcept {
    const char* env = std::getenv("DREL_LOG_LEVEL");
    if (env == nullptr) return LogLevel::kWarn;
    std::string name(env);
    for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (name == "debug") return LogLevel::kDebug;
    if (name == "info") return LogLevel::kInfo;
    if (name == "warn" || name == "warning") return LogLevel::kWarn;
    if (name == "error") return LogLevel::kError;
    if (name == "off" || name == "none") return LogLevel::kOff;
    return LogLevel::kWarn;
}

const LogLevel g_level = level_from_env();
std::mutex g_mutex;

const char* level_name(LogLevel level) noexcept {
    switch (level) {
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO ";
        case LogLevel::kWarn: return "WARN ";
        case LogLevel::kError: return "ERROR";
        case LogLevel::kOff: return "OFF  ";
    }
    return "?????";
}

double seconds_since_start() noexcept {
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point start = Clock::now();
    return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

LogLevel log_level() noexcept { return g_level; }

void log_line(LogLevel level, std::string_view component, std::string_view message) {
    if (static_cast<int>(level) < static_cast<int>(log_level())) return;
    const std::lock_guard<std::mutex> lock(g_mutex);
    std::fprintf(stderr, "[%9.3f] [%s] [%.*s] %.*s\n", seconds_since_start(), level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
}

}  // namespace drel::util
