#include "sim/sweep_runner.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace themis::sim {

namespace {

int
resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (const char* env = std::getenv("THEMIS_SWEEP_THREADS")) {
        // Strict parse: a malformed override silently falling back to
        // hardware concurrency turns "THEMIS_SWEEP_THREADS=1O ctest"
        // into a nondeterministically-threaded run with no hint why.
        char* end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end == env || *end != '\0')
            THEMIS_FATAL("THEMIS_SWEEP_THREADS='"
                         << env
                         << "' is not an integer; set a positive "
                            "worker count or unset it");
        if (n < 1 || n > 4096)
            THEMIS_FATAL("THEMIS_SWEEP_THREADS="
                         << n
                         << " is outside [1, 4096]; set a positive "
                            "worker count or unset it");
        return static_cast<int>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : threads_(resolveThreads(options.threads))
{
}

void
SweepRunner::run(std::vector<Job> jobs)
{
    for (const auto& job : jobs)
        THEMIS_ASSERT(job, "null sweep job");
    if (jobs.empty())
        return;

    // Re-throw ConfigErrors with the failing job's index attached: a
    // multi-hundred-cell grid (e.g. a convergence sweep) is
    // undebuggable from a bare "bad chunk count" message, and the
    // index pins the exact cell regardless of worker interleaving.
    auto run_job = [](Job& job, std::size_t i, EventQueue& queue) {
        try {
            job(queue);
        } catch (const ConfigError& e) {
            throw ConfigError("sweep job " + std::to_string(i) +
                              " failed: " + e.what());
        }
    };

    const int workers =
        static_cast<int>(std::min<std::size_t>(
            jobs.size(), static_cast<std::size_t>(threads_)));
    if (workers <= 1) {
        EventQueue queue;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            run_job(jobs[i], i, queue);
            queue.reset();
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
        EventQueue queue;
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            // Fail fast: once any job has thrown, stop pulling work
            // instead of grinding through the rest of the grid.
            if (i >= jobs.size() ||
                failed.load(std::memory_order_relaxed))
                return;
            try {
                run_job(jobs[i], i, queue);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
            queue.reset();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto& thread : pool)
        thread.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace themis::sim
