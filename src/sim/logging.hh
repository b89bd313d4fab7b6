/**
 * @file
 * Status and error reporting in the gem5 idiom: panic() for simulator
 * bugs, fatal() for user/configuration errors, warn() for non-fatal
 * status messages, and logLine() for protocol narration.
 *
 * Thread model: every message is routed through the calling thread's
 * log sink. By default that sink is stderr (writes are serialized by a
 * process-wide mutex so parallel sweep jobs cannot interleave partial
 * lines); a sweep job installs a LogCapture so everything the machine
 * prints — including the message of the panic/fatal that killed it —
 * lands in a private per-job buffer instead of the shared console.
 */

#ifndef COHESION_SIM_LOGGING_HH
#define COHESION_SIM_LOGGING_HH

#include <mutex>
#include <sstream>
#include <string>

namespace sim {

/** Concatenate arbitrary streamable arguments into a std::string. */
template <typename... Args>
std::string
cat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Abort with a message: something happened that is a simulator bug. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exit with a message: the simulation cannot continue (user error). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to the thread's log sink; the simulation continues. */
void warnImpl(const std::string &msg);

/** Print @p line verbatim, newline added, to the thread's log sink
 *  (protocol narration: --trace and --watch-line). */
void logLine(const std::string &line);

/**
 * RAII redirection of this thread's warn()/logLine()/panic()/fatal()
 * output into a private buffer. Captures nest (the innermost wins and
 * the previous sink is restored on destruction), and each simulator
 * thread owns its capture independently — this is what keeps the
 * failure dump of one parallel sweep job free of its siblings' chatter.
 */
class LogCapture
{
  public:
    LogCapture();
    ~LogCapture();

    LogCapture(const LogCapture &) = delete;
    LogCapture &operator=(const LogCapture &) = delete;

    /** Everything captured so far (owned by the capture). */
    std::string
    text() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _buf.str();
    }

    /** True if any output was captured. */
    bool
    empty() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _buf.str().empty();
    }

    /** Internal: sink hook used by the logging implementation. The
     *  mutex keeps append() and text() safe if another thread reads a
     *  capture while its owner writes; it is uncontended in practice
     *  and append is cold anyway. */
    void
    append(const std::string &line)
    {
        std::lock_guard<std::mutex> g(_mu);
        _buf << line;
    }

  private:
    mutable std::mutex _mu;
    std::ostringstream _buf;
    LogCapture *_prev; ///< Enclosing capture on this thread, if any.
};

} // namespace sim

#define panic(...) \
    ::sim::panicImpl(__FILE__, __LINE__, ::sim::cat(__VA_ARGS__))
#define fatal(...) \
    ::sim::fatalImpl(__FILE__, __LINE__, ::sim::cat(__VA_ARGS__))
#define warn(...) ::sim::warnImpl(::sim::cat(__VA_ARGS__))

#define panic_if(cond, ...)                  \
    do {                                     \
        if (cond) { panic(__VA_ARGS__); }    \
    } while (0)

#define fatal_if(cond, ...)                  \
    do {                                     \
        if (cond) { fatal(__VA_ARGS__); }    \
    } while (0)

#endif // COHESION_SIM_LOGGING_HH
