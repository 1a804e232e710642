/**
 * @file
 * Small helpers shared by the benchmark: the host clock, quantiles,
 * the seeded input generator and the process's peak memory.
 */

#ifndef PERFBENCH_UTIL_HPP
#define PERFBENCH_UTIL_HPP

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
inline double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Linearly interpolated quantile @p q in [0, 1]; 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * SplitMix64. The benchmark draws its inputs from this rather than
 * from <random> distributions, whose output may differ between
 * standard libraries: one seed gives the same inputs everywhere.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform draw from [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        const double u =
            static_cast<double>(next() >> 11) * 0x1.0p-53;
        return lo + (hi - lo) * u;
    }

  private:
    std::uint64_t state_;
};

/**
 * Peak resident set size of this process image, in MiB. VmHWM, not
 * getrusage(): ru_maxrss survives exec, so it would report the
 * launching interpreter's peak when that was larger.
 */
inline double
peakRssMb()
{
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kib = -1.0;
        while (std::fgets(line, sizeof(line), f) != nullptr)
            if (std::sscanf(line, "VmHWM: %lf", &kib) == 1)
                break;
        std::fclose(f);
        if (kib >= 0.0)
            return kib / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Run @p rep (which returns the host ns of its timed region) at least
 * @p min_reps times and until @p budget_s seconds have passed; return
 * the median.
 */
template <typename F>
double
medianOfReps(double budget_s, F&& rep, std::size_t min_reps = 3)
{
    std::vector<double> samples;
    const double t0 = nowNs();
    do {
        samples.push_back(rep());
    } while ((samples.size() < min_reps ||
              nowNs() - t0 < budget_s * 1e9) &&
             samples.size() < 2000);
    return median(std::move(samples));
}

} // namespace perfbench

#endif // PERFBENCH_UTIL_HPP
