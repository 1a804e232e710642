/**
 * @file
 * Error-reporting primitives, following the gem5 fatal()/panic() split:
 *
 *  - THEMIS_FATAL: the *user's* fault (bad configuration, invalid
 *    arguments). Throws themis::ConfigError so callers/tests can catch;
 *    the message carries no file:line, since users read it.
 *  - THEMIS_PANIC: an internal invariant violation (a Themis bug).
 *    Prints and aborts.
 *  - THEMIS_ASSERT: cheap invariant check that panics on failure with
 *    a message; enabled in all build types (the simulator is not
 *    perf-critical enough to justify silent release-mode corruption).
 */

#ifndef THEMIS_COMMON_ERROR_HPP
#define THEMIS_COMMON_ERROR_HPP

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace themis {

/** Exception type for configuration / usage errors (gem5's fatal()). */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string& what_arg)
        : std::runtime_error(what_arg)
    {}
};

namespace detail {

[[noreturn]] inline void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::fflush(stderr);
    std::abort();
}

} // namespace detail
} // namespace themis

/**
 * Report a user/configuration error; throws themis::ConfigError whose
 * what() is the message alone. The user reads it (the CLI prints it
 * after "error: "), so it names no source location.
 */
#define THEMIS_FATAL(msg)                                                  \
    do {                                                                   \
        std::ostringstream themis_oss_;                                    \
        themis_oss_ << msg; /* NOLINT */                                   \
        throw ::themis::ConfigError(themis_oss_.str());                    \
    } while (0)

/** Report an internal bug; prints and aborts. */
#define THEMIS_PANIC(msg)                                                  \
    do {                                                                   \
        std::ostringstream themis_oss_;                                    \
        themis_oss_ << msg; /* NOLINT */                                   \
        ::themis::detail::panicImpl(__FILE__, __LINE__,                    \
                                    themis_oss_.str());                    \
    } while (0)

/** Invariant check; panics (with the condition text) when violated. */
#define THEMIS_ASSERT(cond, msg)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream themis_oss_;                                \
            themis_oss_ << "assertion (" #cond ") failed: " << msg;        \
            ::themis::detail::panicImpl(__FILE__, __LINE__,                \
                                        themis_oss_.str());                \
        }                                                                  \
    } while (0)

#endif // THEMIS_COMMON_ERROR_HPP
