/**
 * @file
 * Optimal static chunk-mix oracle.
 *
 * Themis picks chunk schedules greedily (Algorithm 1). The best any
 * *static* scheduler could do is a fractional mix over the D!
 * Reduce-Scatter orders (AG mirrored) that minimizes the maximum
 * per-dimension load — a min-max linear program over the permutation
 * simplex:
 *
 *     minimize  max_k  sum_pi x_pi * load_k(pi)
 *     s.t.      sum_pi x_pi = 1,  x >= 0
 *
 * where load_k(pi) is the N*B time dimension k absorbs per byte of
 * collective routed with order pi. The program is solved with
 * multiplicative weights, which brackets the optimum rather than
 * hitting it: balanced_load is the value of the mix it returns (an
 * upper bound on the optimum) and dual_bound a lower bound. Any
 * schedule, Themis's greedy included, loads its bottleneck at least
 * dual_bound per byte, so the greedy may land below balanced_load.
 * tests/paper_fidelity_test.cpp asserts the greedy sits within 5% of
 * dual_bound; Sec 6.3's under-provisioned scenario falls out
 * naturally (the optimum itself cannot balance).
 */

#ifndef THEMIS_CORE_OPTIMAL_MIX_HPP
#define THEMIS_CORE_OPTIMAL_MIX_HPP

#include <vector>

#include "core/latency_model.hpp"

namespace themis {

/** Solution of the min-max schedule-mix program. */
struct OptimalMixResult
{
    /** All D! RS orders, index-aligned with mix. */
    std::vector<std::vector<int>> orders;

    /** Fraction of collective bytes routed per order (sums to 1). */
    std::vector<double> mix;

    /** Resulting per-dimension load for one byte of collective. */
    std::vector<double> per_dim_load;

    /**
     * max(per_dim_load): the bottleneck of the returned mix, per byte.
     * An upper bound on the optimum, not the optimum itself.
     */
    double balanced_load = 0.0;

    /**
     * Lower bound on the optimum from the final dual weights;
     * balanced_load minus this bounds the optimality gap.
     */
    double dual_bound = 0.0;
};

/**
 * Solve the min-max mix for @p type on @p model's dimensions.
 * @param iterations multiplicative-weights rounds (default plenty for
 *        <=4 dimensions).
 */
OptimalMixResult optimalStaticMix(const LatencyModel& model,
                                  CollectiveType type,
                                  int iterations = 20000);

} // namespace themis

#endif // THEMIS_CORE_OPTIMAL_MIX_HPP
