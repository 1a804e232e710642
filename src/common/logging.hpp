/**
 * @file
 * Minimal leveled logger. The simulator is a library first, so logging
 * defaults to warnings-only and writes to stderr; benches and examples
 * raise the level explicitly when narrating runs.
 */

#ifndef THEMIS_COMMON_LOGGING_HPP
#define THEMIS_COMMON_LOGGING_HPP

#include <sstream>
#include <string>

namespace themis {

/** Severity levels, ordered. */
enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/** Global logger configuration and sink. */
class Logger
{
  public:
    /** Set the global threshold; messages below it are dropped. */
    static void setLevel(LogLevel level);

    /** Current global threshold (inline: hot paths test it before
     *  building any message). */
    static LogLevel level() { return global_level_; }

    /** Emit one message at @p level with a severity prefix. */
    static void write(LogLevel level, const std::string& msg);

  private:
    static LogLevel global_level_;
};

namespace detail {

template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Log at Debug level. */
template <typename... Args>
void
logDebug(Args&&... args)
{
    if (Logger::level() <= LogLevel::Debug)
        Logger::write(LogLevel::Debug,
                      detail::concat(std::forward<Args>(args)...));
}

/** Log at Info level (gem5's inform()). */
template <typename... Args>
void
logInfo(Args&&... args)
{
    if (Logger::level() <= LogLevel::Info)
        Logger::write(LogLevel::Info,
                      detail::concat(std::forward<Args>(args)...));
}

/** Log at Warn level (gem5's warn()). */
template <typename... Args>
void
logWarn(Args&&... args)
{
    if (Logger::level() <= LogLevel::Warn)
        Logger::write(LogLevel::Warn,
                      detail::concat(std::forward<Args>(args)...));
}

/** Log at Error level. */
template <typename... Args>
void
logError(Args&&... args)
{
    if (Logger::level() <= LogLevel::Error)
        Logger::write(LogLevel::Error,
                      detail::concat(std::forward<Args>(args)...));
}

} // namespace themis

#endif // THEMIS_COMMON_LOGGING_HPP
