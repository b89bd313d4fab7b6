/**
 * @file
 * C++20 coroutine task type used as the execution model for simulated
 * cores. A kernel runs as a tree of CoTask coroutines; awaiting a
 * memory operation either completes synchronously (L1/L2 hit: zero
 * simulation events) or suspends the coroutine until the memory system
 * resumes it from an event callback.
 */

#ifndef COHESION_SIM_COTASK_HH
#define COHESION_SIM_COTASK_HH

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/logging.hh"

namespace sim {

/**
 * An eagerly-ownable, lazily-started coroutine with void result.
 * Supports nesting via `co_await child()` with symmetric transfer back
 * to the parent at completion. Top-level tasks are kicked off with
 * start() and report completion through done().
 */
class CoTask
{
  public:
    struct promise_type
    {
        std::coroutine_handle<> continuation;
        bool finished = false;
        std::exception_ptr error;

        CoTask
        get_return_object()
        {
            return CoTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto &p = h.promise();
                p.finished = true;
                if (p.continuation)
                    return p.continuation;
                return std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { error = std::current_exception(); }
    };

    CoTask() = default;

    explicit CoTask(std::coroutine_handle<promise_type> h) : _handle(h) {}

    CoTask(CoTask &&other) noexcept
        : _handle(std::exchange(other._handle, nullptr))
    {}

    CoTask &
    operator=(CoTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            _handle = std::exchange(other._handle, nullptr);
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    /** True if a coroutine is attached. */
    bool valid() const { return static_cast<bool>(_handle); }

    /** True once the coroutine has run to completion. */
    bool
    done() const
    {
        return _handle && _handle.promise().finished;
    }

    /** Start (or resume) a top-level task. Rethrows task exceptions. */
    void
    start()
    {
        panic_if(!_handle, "starting an empty CoTask");
        _handle.resume();
        rethrow();
    }

    /** The exception the coroutine exited with, if any. */
    std::exception_ptr
    error() const
    {
        return _handle ? _handle.promise().error : nullptr;
    }

    /** Rethrow an exception captured inside the coroutine, if any. */
    void
    rethrow() const
    {
        if (std::exception_ptr e = error())
            std::rethrow_exception(e);
    }

    /** Awaiter for nesting: co_await child starts it, resumes us after. */
    struct Awaiter
    {
        std::coroutine_handle<promise_type> child;

        bool await_ready() const noexcept { return !child || child.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) noexcept
        {
            child.promise().continuation = parent;
            return child;
        }

        void
        await_resume() const
        {
            if (child && child.promise().error)
                std::rethrow_exception(child.promise().error);
        }
    };

    Awaiter operator co_await() const noexcept { return Awaiter{_handle}; }

  private:
    void
    destroy()
    {
        if (_handle) {
            _handle.destroy();
            _handle = nullptr;
        }
    }

    std::coroutine_handle<promise_type> _handle;
};

/**
 * One-shot resumption slot: the memory system parks a coroutine handle
 * here and an event callback later resumes it. Used by awaitables whose
 * completion is event-driven.
 */
class Resumer
{
  public:
    void
    arm(std::coroutine_handle<> h)
    {
        panic_if(_handle, "Resumer armed twice");
        _handle = h;
    }

    bool armed() const { return static_cast<bool>(_handle); }

    /** Resume the parked coroutine (clears the slot first). */
    void
    fire()
    {
        panic_if(!_handle, "Resumer fired while empty");
        auto h = std::exchange(_handle, nullptr);
        h.resume();
    }

  private:
    std::coroutine_handle<> _handle;
};

} // namespace sim

#endif // COHESION_SIM_COTASK_HH
