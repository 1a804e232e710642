/**
 * @file
 * The Dim Load Tracker component of Themis (paper Fig 6).
 *
 * Maintains, per network dimension, the total communication time the
 * chunks scheduled so far will place on it. Reset at every collective
 * (Algorithm 1 line 2) to the dimension's fixed delay A_K for the
 * requested collective type (Sec 4.4), so latency-heavy dimensions
 * start with a handicap that the greedy scheduler works around.
 */

#ifndef THEMIS_CORE_DIM_LOAD_TRACKER_HPP
#define THEMIS_CORE_DIM_LOAD_TRACKER_HPP

#include <vector>

#include "core/latency_model.hpp"

namespace themis {

/** Per-dimension accumulated predicted load, in nanoseconds. */
class DimLoadTracker
{
  public:
    /**
     * @param model latency model over the participating dimensions
     *        (must outlive the tracker)
     */
    explicit DimLoadTracker(const LatencyModel& model);

    /**
     * Reset for a new collective (Algorithm 1 line 2).
     * @param type collective type whose A_K seeds the loads
     * @param init_with_fixed_delay when false, loads start at zero
     *        (the LP oracle's N*B loads; the paper initializes to A_K)
     */
    void reset(CollectiveType type, bool init_with_fixed_delay = true);

    /** Current loads, one per local dimension. */
    const std::vector<TimeNs>& loads() const { return loads_; }

    /** Largest current load. */
    TimeNs maxLoad() const;

    /** Smallest current load. */
    TimeNs minLoad() const;

    /** Index of the dimension with the smallest load (ties: lowest). */
    int minLoadDim() const;

    /** Accumulate @p delta (one entry per dimension) into the loads. */
    void add(const std::vector<TimeNs>& delta);

  private:
    const LatencyModel& model_;
    std::vector<TimeNs> loads_;
};

} // namespace themis

#endif // THEMIS_CORE_DIM_LOAD_TRACKER_HPP
