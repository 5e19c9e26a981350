/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic() is for internal invariant violations (a HoPP bug), fatal() for
 * unrecoverable user/configuration errors.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace hopp
{

namespace detail
{

[[noreturn]] void terminateWithMessage(const char *kind, const char *file,
                                       int line, const std::string &msg,
                                       bool core_dump);

std::string formatMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Abort with a core dump: something that must never happen happened. */
#define hopp_panic(...)                                                      \
    ::hopp::detail::terminateWithMessage(                                    \
        "panic", __FILE__, __LINE__,                                         \
        ::hopp::detail::formatMessage(__VA_ARGS__), true)

/** Exit(1): the configuration or input is unusable, not a HoPP bug. */
#define hopp_fatal(...)                                                      \
    ::hopp::detail::terminateWithMessage(                                    \
        "fatal", __FILE__, __LINE__,                                         \
        ::hopp::detail::formatMessage(__VA_ARGS__), false)

/** Cheap always-on assertion used to protect simulation invariants. */
#define hopp_assert(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::hopp::detail::terminateWithMessage(                            \
                "panic", __FILE__, __LINE__,                                 \
                std::string("assertion failed: ") + #cond + ": " +           \
                    ::hopp::detail::formatMessage(__VA_ARGS__),              \
                true);                                                       \
        }                                                                    \
    } while (0)

} // namespace hopp

