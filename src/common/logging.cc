#include "common/logging.hh"

#include <cstdarg>
#include <vector>

namespace hopp
{
namespace detail
{

std::string
formatMessage(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

void
terminateWithMessage(const char *kind, const char *file, int line,
                     const std::string &msg, bool core_dump)
{
    std::fprintf(stderr, "[%s] %s:%d: %s\n", kind, file, line, msg.c_str());
    if (core_dump)
        std::abort();
    std::exit(1);
}

} // namespace detail
} // namespace hopp
