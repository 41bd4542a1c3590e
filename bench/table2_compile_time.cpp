/**
 * Reproduces Table 2: Rosetta benchmark compile time by stage (hls /
 * syn / p&r / bitgen) for the Vitis baseline flow, PLD -O3, PLD -O1
 * (parallel page compiles; the stage value is the slowest operator,
 * matching the paper's per-operator cluster nodes), and PLD -O0.
 *
 * Absolute times are scaled (our backend is a simulator); the claims
 * to check are the ratios: -O1 is several-fold faster than the
 * monolithic flows, and -O0 compiles orders of magnitude faster
 * still (paper: 1-2 h monolithic, 10-20 min -O1, <4 s -O0).
 */

#include "bench_common.h"

using namespace pld;
using namespace pld::flow;

int
main()
{
    double effort = bench::benchEffort(25.0);
    auto benches = rosetta::allBenchmarks();

    Table t("Table 2: Rosetta Benchmark Compile Time (seconds, "
            "simulated backend)");
    t.addRow({"Benchmark",
              "vitis:hls", "syn", "p&r", "bit", "total",
              "O3:total", "O1:hls", "syn", "p&r", "bit", "total",
              "O0:total", "O1 speedup"});

    for (auto &bm : benches) {
        PldCompiler pc(bench::device(), bench::compileOptions(effort));
        AppBuild vit = pc.build(bm.graph, OptLevel::Vitis);
        AppBuild o3 = pc.build(bm.graph, OptLevel::O3);
        pc.clearCache();
        AppBuild o1 = pc.build(bm.graph, OptLevel::O1);
        AppBuild o0 = pc.build(bm.graph, OptLevel::O0);

        // The compiler's own per-stage aggregate; the pld.wall.*
        // gauges are derived from it.
        const StageTimes &vit_w = vit.wallTimes;
        const StageTimes &o3_w = o3.wallTimes;
        const StageTimes &o1_w = o1.wallTimes;
        const StageTimes &o0_w = o0.wallTimes;
        double speedup =
            vit_w.total() / std::max(1e-9, o1_w.total());
        t.row(bm.name, fmtDouble(vit_w.hls, 3),
              fmtDouble(vit_w.syn, 3),
              fmtDouble(vit_w.pnr, 3),
              fmtDouble(vit_w.bitgen, 3),
              fmtDouble(vit_w.total(), 3),
              fmtDouble(o3_w.total(), 3),
              fmtDouble(o1_w.hls, 3),
              fmtDouble(o1_w.syn, 3),
              fmtDouble(o1_w.pnr, 3),
              fmtDouble(o1_w.bitgen, 3),
              fmtDouble(o1_w.total(), 3),
              fmtDouble(o0_w.total(), 4),
              fmtDouble(speedup, 1) + "x");
    }
    t.print();
    std::printf("(paper: monolithic 3942-6584s; -O1 578-1152s => "
                "4.2-7.3x; -O0 1.0-3.4s)\n");
    return 0;
}
