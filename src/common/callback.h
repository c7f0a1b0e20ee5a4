/**
 * @file
 * A move-only callable wrapper with small-buffer storage, replacing
 * std::function on the per-request hot path. std::function requires a
 * copyable target and heap-allocates once captures outgrow its tiny
 * internal buffer; every demand request used to pay one allocation for
 * its completion chain. MoveFunction stores any nothrow-movable
 * callable up to Cap bytes inline (larger or throwing-move targets
 * fall back to the heap) and never requires copyability, so move-only
 * captures compose without wrapper layers.
 */
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mempod {

template <typename Sig, std::size_t Cap = 64>
class MoveFunction;

/** Move-only callable; inline up to Cap bytes, heap beyond. */
template <typename R, typename... Args, std::size_t Cap>
class MoveFunction<R(Args...), Cap>
{
  public:
    MoveFunction() = default;
    MoveFunction(std::nullptr_t) {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, MoveFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    MoveFunction(F &&f)
    {
        emplace<D>(std::forward<F>(f));
    }

    MoveFunction(MoveFunction &&other) noexcept { moveFrom(other); }

    MoveFunction &
    operator=(MoveFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    MoveFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    MoveFunction(const MoveFunction &) = delete;
    MoveFunction &operator=(const MoveFunction &) = delete;

    ~MoveFunction() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Call the target; undefined when empty (check bool first). */
    R
    operator()(Args... args)
    {
        return invoke_(&storage_, std::forward<Args>(args)...);
    }

  private:
    /** Target stored directly in the inline buffer. */
    template <typename F>
    struct Inline
    {
        static R
        invoke(void *s, Args... a)
        {
            return (*static_cast<F *>(s))(std::forward<Args>(a)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) F(std::move(*static_cast<F *>(src)));
            static_cast<F *>(src)->~F();
        }
        static void destroy(void *s) { static_cast<F *>(s)->~F(); }
    };

    /** Oversized target: the buffer holds an owning pointer. */
    template <typename F>
    struct Boxed
    {
        static R
        invoke(void *s, Args... a)
        {
            return (**static_cast<F **>(s))(std::forward<Args>(a)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) (F *)(*static_cast<F **>(src));
        }
        static void destroy(void *s) { delete *static_cast<F **>(s); }
    };

    template <typename F, typename G>
    void
    emplace(G &&g)
    {
        if constexpr (sizeof(F) <= Cap &&
                      alignof(F) <= alignof(std::max_align_t) &&
                      std::is_trivially_copyable_v<F>) {
            // No relocate_: moveFrom copies the whole buffer inline
            // (zeroed first, so every byte it copies is initialized).
            // Request and event containers move these several times
            // per record, where an indirect call costs more than the
            // copy.
            std::memset(&storage_, 0, Cap);
            ::new (static_cast<void *>(&storage_)) F(std::forward<G>(g));
            invoke_ = &Inline<F>::invoke;
            relocate_ = nullptr;
            destroy_ = nullptr; // trivially destructible
        } else if constexpr (sizeof(F) <= Cap &&
                             alignof(F) <=
                                 alignof(std::max_align_t) &&
                             std::is_nothrow_move_constructible_v<F>) {
            ::new (static_cast<void *>(&storage_)) F(std::forward<G>(g));
            invoke_ = &Inline<F>::invoke;
            relocate_ = &Inline<F>::relocate;
            destroy_ = &Inline<F>::destroy;
        } else {
            ::new (static_cast<void *>(&storage_)) (F *)(
                new F(std::forward<G>(g)));
            invoke_ = &Boxed<F>::invoke;
            relocate_ = &Boxed<F>::relocate;
            destroy_ = &Boxed<F>::destroy;
        }
    }

    void
    moveFrom(MoveFunction &other) noexcept
    {
        invoke_ = other.invoke_;
        relocate_ = other.relocate_;
        destroy_ = other.destroy_;
        if (invoke_) {
            if (relocate_)
                relocate_(&storage_, &other.storage_);
            else
                std::memcpy(&storage_, &other.storage_, Cap);
            other.invoke_ = nullptr;
            other.relocate_ = nullptr;
            other.destroy_ = nullptr;
        }
    }

    void
    reset()
    {
        if (destroy_)
            destroy_(&storage_);
        invoke_ = nullptr;
        relocate_ = nullptr;
        destroy_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[Cap];
    R (*invoke_)(void *, Args...) = nullptr;
    void (*relocate_)(void *, void *) noexcept = nullptr;
    void (*destroy_)(void *) = nullptr;
};

} // namespace mempod
