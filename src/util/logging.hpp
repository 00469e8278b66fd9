// Minimal leveled logger used across the library.
//
// We deliberately avoid a heavyweight logging dependency: benches and the
// fleet simulation only need leveled, timestamped lines on stderr, and tests
// need a way to silence everything.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace drel::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are discarded. The initial level
/// is read from the DREL_LOG_LEVEL environment variable
/// (debug|info|warn|error|off, case-insensitive); unset or unrecognized
/// values default to kWarn.
LogLevel log_level() noexcept;

/// Emit one line at `level` with a monotonic timestamp prefix.
void log_line(LogLevel level, std::string_view component, std::string_view message);

/// Stream-style helper: LogStream(kInfo, "dpmm") << "iter " << i;
/// The line is emitted when the object is destroyed.
class LogStream {
 public:
    LogStream(LogLevel level, std::string_view component)
        : level_(level), component_(component) {}
    LogStream(const LogStream&) = delete;
    LogStream& operator=(const LogStream&) = delete;
    ~LogStream() { log_line(level_, component_, stream_.str()); }

    template <typename T>
    LogStream& operator<<(const T& value) {
        stream_ << value;
        return *this;
    }

 private:
    LogLevel level_;
    std::string component_;
    std::ostringstream stream_;
};

}  // namespace drel::util

#define DREL_LOG_DEBUG(component) ::drel::util::LogStream(::drel::util::LogLevel::kDebug, component)
#define DREL_LOG_INFO(component) ::drel::util::LogStream(::drel::util::LogLevel::kInfo, component)
#define DREL_LOG_WARN(component) ::drel::util::LogStream(::drel::util::LogLevel::kWarn, component)
#define DREL_LOG_ERROR(component) ::drel::util::LogStream(::drel::util::LogLevel::kError, component)
