/**
 * @file
 * A callable wrapper with fixed inline storage, replacing
 * std::function on hot paths (event callbacks, swap hooks, metadata
 * continuations). std::function heap-allocates once captures outgrow
 * its tiny internal buffer; MoveFunction stores its target inline in
 * Cap bytes, and a target must be trivially copyable and fit the
 * buffer — both checked at compile time. The wrapper is therefore
 * trivially copyable itself: copying, moving and destroying one is a
 * plain byte copy (a move leaves the source callable too), so
 * containers relocate it with memcpy. An oversize capture is a
 * compile error, not a silent heap fallback.
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

/** Callable over a trivially copyable target of <= Cap bytes. */
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
        static_assert(sizeof(D) <= Cap,
                      "MoveFunction target exceeds its inline buffer");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "MoveFunction target is over-aligned");
        static_assert(std::is_trivially_copyable_v<D>,
                      "MoveFunction target must be trivially copyable");
        // Zeroed first, so every byte a copy reads is initialized.
        std::memset(&storage_, 0, Cap);
        ::new (static_cast<void *>(&storage_)) D(std::forward<F>(f));
        invoke_ = &invoke<D>;
    }

    MoveFunction &
    operator=(std::nullptr_t)
    {
        invoke_ = nullptr;
        return *this;
    }

    MoveFunction(const MoveFunction &) = default;
    MoveFunction &operator=(const MoveFunction &) = default;

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Call the target; undefined when empty (check bool first). */
    R
    operator()(Args... args)
    {
        return invoke_(&storage_, std::forward<Args>(args)...);
    }

  private:
    template <typename F>
    static R
    invoke(void *s, Args... a)
    {
        return (*static_cast<F *>(s))(std::forward<Args>(a)...);
    }

    alignas(std::max_align_t) unsigned char storage_[Cap];
    R (*invoke_)(void *, Args...) = nullptr;
};

} // namespace mempod
