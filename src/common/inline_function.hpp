/**
 * @file
 * Fixed-capacity callable for trivially copyable closures.
 *
 * The shared channels store one completion callback (and optionally
 * one failure callback) per in-flight transfer, and every callback
 * they are given is a lambda capturing a pointer and a handle or two.
 * std::function carries such a lambda in its small buffer but still
 * routes every copy, move and destruction through its type-erased
 * manager. InlineFunction<R(Args...), N> keeps the closure's bytes in
 * place next to one call pointer, and nothing else: no manager, no
 * heap fallback. Copying it is a bitwise copy, destroying it is
 * nothing, and resetting it is one pointer store.
 *
 * Restricted on purpose: only invocable, trivially copyable closures
 * of at most N bytes (and pointer alignment) convert to it, checked
 * at compile time, so a closure that captures an owning object (a
 * std::vector, a std::function, a shared_ptr) or outgrows the buffer
 * is a compile error, not a silent allocation.
 */

#ifndef THEMIS_COMMON_INLINE_FUNCTION_HPP
#define THEMIS_COMMON_INLINE_FUNCTION_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace themis {

template <typename Signature, std::size_t N>
class InlineFunction;

/** In-place callable; see file comment. */
template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N>
{
    static constexpr std::size_t kAlign = alignof(void*);

    template <typename Fn>
    static constexpr bool kFits =
        !std::is_same_v<Fn, InlineFunction> &&
        std::is_invocable_r_v<R, Fn&, Args...> &&
        std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= N &&
        alignof(Fn) <= kAlign;

  public:
    /** Empty: converts to false and must not be called. */
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) noexcept {}

    /** Store @p f in place. */
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<kFits<Fn>>>
    InlineFunction(F&& f) noexcept
        : call_([](void* p, Args... args) -> R {
              return (*std::launder(static_cast<Fn*>(p)))(
                  std::forward<Args>(args)...);
          })
    {
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    }

    /** Drop the callable: one pointer store. */
    InlineFunction&
    operator=(std::nullptr_t) noexcept
    {
        call_ = nullptr;
        return *this;
    }

    explicit operator bool() const { return call_ != nullptr; }

    R
    operator()(Args... args)
    {
        return call_(storage_, std::forward<Args>(args)...);
    }

  private:
    alignas(kAlign) unsigned char storage_[N];
    R (*call_)(void*, Args...) = nullptr;
};

} // namespace themis

#endif // THEMIS_COMMON_INLINE_FUNCTION_HPP
