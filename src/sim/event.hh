/**
 * @file
 * Move-only callable used by the event queue. Replaces std::function
 * on the schedule->fire hot path: captures up to inlineCapacity bytes
 * are stored inside the object itself, and larger captures (e.g. a
 * full Request with its line payload) are placed in pooled, free-list
 * recycled nodes — so the steady-state schedule->fire cycle performs
 * no heap allocations in either case.
 *
 * Thread rule: an event is destroyed on the thread that built it. The
 * nodes come from a thread-local pool (one free list per size class,
 * no per-node header; its slabs are freed when the thread exits), so
 * the rule is what makes a free safe. It holds because a machine, its
 * queue and every event in it live and die on the thread that runs
 * their job (see harness/sweep.hh).
 */

#ifndef COHESION_SIM_EVENT_HH
#define COHESION_SIM_EVENT_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

namespace detail {

/** Pooled allocation for event captures larger than the inline buffer.
 *  @p size must be the same in both calls for a given node, and both
 *  calls must run on the same thread. */
void *eventAlloc(std::size_t size);
void eventFree(void *p, std::size_t size) noexcept;

} // namespace detail

class Event
{
  public:
    /** Captures up to this many bytes are stored inline. */
    static constexpr std::size_t inlineCapacity = 48;

    Event() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Event> &&
                                          std::is_invocable_r_v<void, D &>>>
    Event(F &&fn)
    {
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "over-aligned event captures are not supported");
        if constexpr (sizeof(D) <= inlineCapacity &&
                      std::is_nothrow_move_constructible_v<D>) {
            ::new (static_cast<void *>(_buf)) D(std::forward<F>(fn));
            _ops = &opsInline<D>;
        } else {
            void *node = detail::eventAlloc(sizeof(D));
            ::new (node) D(std::forward<F>(fn));
            heapPtr() = node;
            _ops = &opsHeap<D>;
        }
    }

    Event(Event &&other) noexcept { moveFrom(other); }

    Event &
    operator=(Event &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    ~Event() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** Invoke the stored callable (must be non-empty). */
    void operator()() { _ops->invoke(*this); }

    /** Destroy the stored callable, leaving the event empty. */
    void
    reset() noexcept
    {
        if (_ops) {
            _ops->destroy(*this);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(Event &);
        /** Move-construct src's callable into dst (dst raw), then
         *  destroy src's; dst adopts src's ops. */
        void (*relocate)(Event &dst, Event &src) noexcept;
        void (*destroy)(Event &) noexcept;
    };

    void
    moveFrom(Event &other) noexcept
    {
        _ops = other._ops;
        if (_ops)
            _ops->relocate(*this, other);
        other._ops = nullptr;
    }

    void *&heapPtr() { return *reinterpret_cast<void **>(_buf); }

    template <typename D>
    D *
    inlineObj()
    {
        return std::launder(reinterpret_cast<D *>(_buf));
    }

    template <typename D>
    static void
    invokeInline(Event &e)
    {
        (*e.inlineObj<D>())();
    }

    template <typename D>
    static void
    relocateInline(Event &dst, Event &src) noexcept
    {
        ::new (static_cast<void *>(dst._buf))
            D(std::move(*src.inlineObj<D>()));
        src.inlineObj<D>()->~D();
    }

    template <typename D>
    static void
    destroyInline(Event &e) noexcept
    {
        e.inlineObj<D>()->~D();
    }

    template <typename D>
    static void
    invokeHeap(Event &e)
    {
        (*static_cast<D *>(e.heapPtr()))();
    }

    static void
    relocateHeap(Event &dst, Event &src) noexcept
    {
        dst.heapPtr() = src.heapPtr();
    }

    template <typename D>
    static void
    destroyHeap(Event &e) noexcept
    {
        auto *d = static_cast<D *>(e.heapPtr());
        d->~D();
        detail::eventFree(d, sizeof(D));
    }

    template <typename D>
    static constexpr Ops opsInline = {&invokeInline<D>, &relocateInline<D>,
                                      &destroyInline<D>};

    template <typename D>
    static constexpr Ops opsHeap = {&invokeHeap<D>, &relocateHeap,
                                    &destroyHeap<D>};

    alignas(std::max_align_t) unsigned char _buf[inlineCapacity];
    const Ops *_ops = nullptr;
};

} // namespace sim

#endif // COHESION_SIM_EVENT_HH
