/**
 * @file
 * Shared helpers for the scenario-study harnesses: a standard header
 * and CSV files under bench_results/.
 */

#ifndef THEMIS_BENCH_BENCH_UTIL_HPP
#define THEMIS_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <filesystem>
#include <string>

namespace themis::bench {

/** Ensure bench_results/ exists and return the CSV path for @p name. */
inline std::string
csvPath(const std::string& name)
{
    const std::filesystem::path dir{"bench_results"};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return (dir / (name + ".csv")).string();
}

/** Print a standard bench header. */
inline void
printHeader(const std::string& title, const std::string& paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==============================================================\n\n");
}

} // namespace themis::bench

#endif // THEMIS_BENCH_BENCH_UTIL_HPP
