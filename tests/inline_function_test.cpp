/**
 * @file
 * InlineFunction: the in-place callable the shared channels store
 * their transfer callbacks in.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/inline_function.hpp"
#include "sim/shared_channel.hpp"

namespace themis {
namespace {

using Callback = sim::SharedChannel::Callback;
using FailCallback = sim::SharedChannel::FailCallback;

// The channel copies callbacks bitwise; only closures that allow that
// convert, and a misfit is a compile error rather than an allocation.
static_assert(std::is_trivially_copyable_v<Callback>);
static_assert(std::is_trivially_copyable_v<FailCallback>);
static_assert(std::is_nothrow_constructible_v<Callback, void (*)()>);
static_assert(std::is_constructible_v<Callback, std::nullptr_t>);
static_assert(!std::is_constructible_v<Callback, std::function<void()>>);
static_assert(
    !std::is_constructible_v<FailCallback, std::function<void(Bytes)>>);

TEST(InlineFunction, ConvertsOnlyTriviallyCopyableClosuresThatFit)
{
    auto owning = [v = std::vector<int>{1}] { (void)v.size(); };
    static_assert(!std::is_constructible_v<Callback, decltype(owning)>);

    auto shared = [p = std::make_shared<int>(1)] { (void)*p; };
    static_assert(!std::is_constructible_v<Callback, decltype(shared)>);

    auto big = [a = std::array<char, 33>{}] { (void)a[0]; };
    static_assert(sizeof(big) > 32);
    static_assert(!std::is_constructible_v<Callback, decltype(big)>);

    auto fits = [a = std::array<char, 32>{}] { (void)a[0]; };
    static_assert(sizeof(fits) == 32);
    static_assert(std::is_constructible_v<Callback, decltype(fits)>);

    // A wrong signature does not convert either.
    auto takes_bytes = [](Bytes) {};
    static_assert(!std::is_constructible_v<Callback, decltype(takes_bytes)>);
    static_assert(
        std::is_constructible_v<FailCallback, decltype(takes_bytes)>);

    Callback stored = fits;
    EXPECT_TRUE(stored);
    (void)owning;
    (void)shared;
    (void)big;
    (void)takes_bytes;
}

TEST(InlineFunction, InvokesWithArgumentsAndReturnsItsResult)
{
    int base = 10;
    InlineFunction<int(int, double), 16> add = [&base](int a, double b) {
        return base + a + static_cast<int>(b);
    };
    EXPECT_EQ(add(2, 3.5), 15);
    base = 20;
    EXPECT_EQ(add(0, 0.0), 20);

    std::vector<double> seen;
    FailCallback on_fail = [&seen](Bytes remaining) {
        seen.push_back(remaining);
    };
    on_fail(1.5e6);
    on_fail(0.0);
    EXPECT_EQ(seen, (std::vector<double>{1.5e6, 0.0}));
}

TEST(InlineFunction, CopiesAreBitwiseAndIndependent)
{
    int hits = 0;
    int step = 1;
    Callback a = [&hits, step] { hits += step; };
    Callback b = a; // copy constructor
    Callback c;
    c = a;          // copy assignment
    a = nullptr;    // resetting one copy leaves the others intact
    EXPECT_FALSE(a);
    b();
    c();
    EXPECT_EQ(hits, 2);

    // A memcpy of the bytes is as good as a copy.
    Callback d;
    std::memcpy(static_cast<void*>(&d), static_cast<const void*>(&b),
                sizeof(Callback));
    d();
    EXPECT_EQ(hits, 3);

    // A mutable closure's state travels with each copy separately.
    int last = 0;
    Callback counter = [&last, n = 0]() mutable { last = ++n; };
    counter();
    counter();
    Callback fork = counter;
    counter();
    EXPECT_EQ(last, 3);
    fork();
    EXPECT_EQ(last, 3);
}

TEST(InlineFunction, EmptyFromNullptrOrDefault)
{
    Callback by_default;
    Callback from_null = nullptr;
    FailCallback fail_null(nullptr);
    EXPECT_FALSE(by_default);
    EXPECT_FALSE(from_null);
    EXPECT_FALSE(fail_null);
    Callback set = [] {};
    EXPECT_TRUE(set);
    set = nullptr;
    EXPECT_FALSE(set);
}

} // namespace
} // namespace themis
