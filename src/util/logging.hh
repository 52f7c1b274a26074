/**
 * @file
 * Status and error reporting in the gem5 spirit: inform() for normal
 * progress messages, warn() for suspicious-but-survivable conditions,
 * fatal() for user errors (bad configuration or arguments) and panic()
 * for internal invariant violations (library bugs).
 *
 * Each call is one event of the structured log (obs/log.hh) — inform
 * at info, verbose at debug, warn at warn, fatal and panic at error —
 * printed to stderr as "[info|verb|warn|fatal|panic] msg" when its
 * level passes the XPS_LOG_LEVEL floor (default info), and recorded in
 * the JSON stream when XPS_LOG_JSON is armed.
 */

#ifndef XPS_UTIL_LOGGING_HH
#define XPS_UTIL_LOGGING_HH

#include <string>

#include "obs/log.hh"

namespace xps
{

namespace detail
{
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
} // namespace detail

/** Print an informational message (hidden below the info floor). */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    if (obs::log::passesFloor(obs::log::Level::Info))
        obs::log::detail::report(obs::log::Level::Info, "info",
                                 detail::format(fmt, args...));
}

/** Print a verbose progress message (only at the debug floor). */
template <typename... Args>
void
verbose(const char *fmt, Args... args)
{
    if (obs::log::passesFloor(obs::log::Level::Debug))
        obs::log::detail::report(obs::log::Level::Debug, "verb",
                                 detail::format(fmt, args...));
}

/** Print a warning about a survivable but suspicious condition. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    if (obs::log::passesFloor(obs::log::Level::Warn))
        obs::log::detail::report(obs::log::Level::Warn, "warn",
                                 detail::format(fmt, args...));
}

/** Terminate due to a user error (bad configuration, bad arguments). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    obs::log::detail::die("fatal", detail::format(fmt, args...), false);
}

/** Terminate due to an internal invariant violation (a library bug). */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    obs::log::detail::die("panic", detail::format(fmt, args...), true);
}

} // namespace xps

#endif // XPS_UTIL_LOGGING_HH
