#include "sim/logging.hh"

#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace sim {

namespace {

/** Innermost capture installed on this thread; null => stderr. */
thread_local LogCapture *tlsCapture = nullptr;

/** Serializes uncaptured writes so concurrent jobs that run without a
 *  capture still emit whole lines. */
std::mutex &
stderrMutex()
{
    static std::mutex m;
    return m;
}

void
emitLine(const std::string &line)
{
    if (LogCapture *cap = tlsCapture) {
        cap->append(line); // private per-thread buffer: no locking
        return;
    }
    std::lock_guard<std::mutex> g(stderrMutex());
    std::fputs(line.c_str(), stderr);
    std::fflush(stderr);
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emitLine(cat("panic: ", msg, " (", file, ":", line, ")\n"));
    // Throw instead of abort() so that tests can assert on panics.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emitLine(cat("fatal: ", msg, " (", file, ":", line, ")\n"));
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn: " + msg + "\n");
}

void
logLine(const std::string &line)
{
    emitLine(line + "\n");
}

LogCapture::LogCapture() : _prev(tlsCapture)
{
    tlsCapture = this;
}

LogCapture::~LogCapture()
{
    tlsCapture = _prev;
}

} // namespace sim
