/**
 * @file
 * Ablations of Themis's design choices (DESIGN.md Sec 6), none of
 * which the paper evaluates separately:
 *
 *  1. the robustness threshold (Algorithm 1 line 19),
 *  2. seeding tracker loads with the fixed delays A_K (Sec 4.4),
 *  3. accounting the mirrored AG pass in the tracker,
 *  4. carrying tracker loads across collectives vs resetting,
 *  5. enforced-order planning: exact shadow simulation vs the paper's
 *     fast serial pre-simulation (Sec 4.6.2).
 */

#include <cstdio>

#include "bench_util.hpp"
#include "common/string_util.hpp"
#include "runtime/comm_runtime.hpp"
#include "stats/csv_writer.hpp"
#include "stats/summary.hpp"
#include "topology/presets.hpp"

using namespace themis;

namespace {

runtime::RuntimeConfig
variant(bool use_threshold, bool init_fixed, bool account_ag,
        bool carry)
{
    auto cfg = runtime::themisScfConfig();
    cfg.themis.use_threshold = use_threshold;
    cfg.themis.init_loads_with_fixed_delay = init_fixed;
    cfg.themis.account_ag_pass = account_ag;
    cfg.themis.carry_load_across_collectives = carry;
    return cfg;
}

struct AllReduceRun
{
    TimeNs time = 0.0;
    double weighted_util = 0.0;
};

AllReduceRun
runAllReduce(const Topology& topo, const runtime::RuntimeConfig& cfg,
             Bytes size)
{
    sim::EventQueue queue;
    runtime::CommRuntime comm(queue, topo, cfg);
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.size = size;
    req.chunks = 64;
    const int id = comm.issue(req);
    queue.run();
    comm.finalizeStats();
    return {comm.record(id).duration(),
            comm.utilization().weightedUtilization()};
}

} // namespace

int
main()
{
    bench::printHeader("Scheduler ablations",
                       "DESIGN.md design-choice index (beyond paper)");

    const std::vector<Bytes> sizes{100.0e6, 1.0e9};
    const std::vector<Topology> topos{presets::make3DSwSwSwHomo(),
                                      presets::make4DRingFcRingSw()};

    struct Variant
    {
        const char* name;
        runtime::RuntimeConfig cfg;
    };
    const std::vector<Variant> variants{
        {"Themis+SCF (paper defaults)",
         variant(true, true, false, false)},
        {"  - without threshold", variant(false, true, false, false)},
        {"  - without A_K load seeding",
         variant(true, false, false, false)},
        {"  - accounting the AG pass too",
         variant(true, true, true, false)},
        {"  - carrying loads across collectives",
         variant(true, true, false, true)},
    };

    stats::CsvWriter csv(bench::csvPath("ablation_scheduler"));
    csv.writeRow({"topology", "size_mb", "variant", "time_us",
                  "avg_util"});

    for (const auto& topo : topos) {
        for (Bytes size : sizes) {
            std::printf("%s, %s All-Reduce\n", topo.name().c_str(),
                        fmtBytes(size).c_str());
            stats::TextTable t({"Variant", "Time", "Avg util"});
            for (const auto& v : variants) {
                const auto run = runAllReduce(topo, v.cfg, size);
                t.addRow({v.name, fmtTime(run.time),
                          fmtPercent(run.weighted_util)});
                csv.writeRow({topo.name(), fmtDouble(size / kMB, 0),
                              v.name, fmtDouble(run.time / kUs, 2),
                              fmtDouble(run.weighted_util, 4)});
            }
            std::printf("%s\n", t.render().c_str());
        }
    }

    // Enforced-order planner comparison (Sec 4.6.2).
    std::printf("Consistency enforcement cost (200 MB All-Reduce)\n");
    stats::TextTable t({"Topology", "Policy (free-running)",
                        "Enforced (shadow sim)",
                        "Enforced (fast serial)"});
    for (const auto& topo : presets::nextGenTopologies()) {
        auto cfg = runtime::themisScfConfig();
        const auto policy = runAllReduce(topo, cfg, 2.0e8);
        cfg.enforce_consistent_order = true;
        cfg.order_planner = runtime::OrderPlanner::ShadowSim;
        const auto shadow = runAllReduce(topo, cfg, 2.0e8);
        cfg.order_planner = runtime::OrderPlanner::FastSerial;
        const auto serial = runAllReduce(topo, cfg, 2.0e8);
        t.addRow({topo.name(), fmtTime(policy.time),
                  fmtTime(shadow.time), fmtTime(serial.time)});
        csv.writeRow({topo.name(), "200", "enforced_shadow",
                      fmtDouble(shadow.time / kUs, 2),
                      fmtDouble(shadow.weighted_util, 4)});
        csv.writeRow({topo.name(), "200", "enforced_fast_serial",
                      fmtDouble(serial.time / kUs, 2),
                      fmtDouble(serial.weighted_util, 4)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nReading: the threshold and A_K seeding protect "
                "small/latency-bound collectives;\nAG-pass accounting "
                "only rescales tracked loads (same ranking); shadow-"
                "simulated\nenforcement is free, the paper's fast "
                "serial planner pays head-of-line blocking.\n");
    return 0;
}
