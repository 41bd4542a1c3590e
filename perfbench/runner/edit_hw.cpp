/**
 * edit_hw: the -O1 edit loop. The base is a cold -O1 build of all
 * six Rosetta apps; a round edits every HW operator once, in seeded
 * order, rebuilds its app at -O1 and runs it once on the simulated
 * U50 against the golden vectors of the independent C++ models.
 *
 * The unit operation is the incremental PldCompiler::build; each
 * must recompile exactly the edited operator.
 */

#include <memory>

#include "bench.h"
#include "fabric/device.h"
#include "pld/compiler.h"
#include "rosetta/benchmark.h"

namespace perfbench {

using namespace pld;

void
runEditHw(const Options &opts, Result &res)
{
    const fabric::Device dev = fabric::makeU50();
    const std::vector<rosetta::Benchmark> apps =
        rosetta::allBenchmarks();

    auto pc = repeatSetup(res, [&](int) {
        auto c = std::make_unique<flow::PldCompiler>(dev);
        for (const auto &bm : apps) {
            flow::AppBuild b = c->build(bm.graph, flow::OptLevel::O1);
            if (!b.report.allOk())
                throw std::runtime_error("base build of " + bm.name +
                                         " failed");
        }
        return c;
    });

    struct Target
    {
        size_t app;
        size_t op;
    };
    std::vector<Target> targets;
    for (size_t a = 0; a < apps.size(); ++a)
        for (size_t o = 0; o < apps[a].graph.ops.size(); ++o)
            if (apps[a].graph.ops[o].fn.pragma.target == ir::Target::HW)
                targets.push_back({a, o});

    Rng rng(opts.seed);
    uint64_t nonce = 0;
    runLoop(opts, res, [&](uint64_t round) {
        std::vector<Target> order = targets;
        shuffle(order, rng);
        SimTotals sim;
        double wirelength = 0;
        for (const Target &t : order) {
            calibrateHost(res);
            const rosetta::Benchmark &bm = apps[t.app];
            ir::Graph g = bm.graph;
            const std::string op = g.ops[t.op].fn.name;
            renameEdit(g.ops[t.op].fn, rng,
                       "s" + std::to_string(opts.seed) + "e" +
                           std::to_string(++nonce));
            ++res.attempted;

            auto t0 = Clock::now();
            flow::AppBuild b = pc->build(g, flow::OptLevel::O1);
            res.opMs.push_back(secondsSince(t0) * 1e3);

            int recompiled = 0;
            for (const auto &a : b.ops)
                recompiled += a.fromCache ? 0 : 1;
            res.samples["pld.recompiled_ops"].push_back(recompiled);
            if (recompiled != 1)
                res.fail("edit of " + bm.name + "/" + op +
                         " recompiled " + std::to_string(recompiled) +
                         " operators, expected 1");
            if (!b.report.allOk()) {
                res.operationFailed("rebuild of " + bm.name + "/" + op);
                continue;
            }
            const flow::OperatorArtifact &art = b.ops[t.op];
            wirelength += static_cast<double>(
                art.pnr.routing.totalWirelength);
            res.samples["pnr.crit_path_ns"].push_back(
                art.pnr.timing.critPathNs);

            sys::SystemSim s(g, b.bindings, b.sysCfg);
            s.loadInput(0, bm.input);
            auto s0 = Clock::now();
            sys::RunStats rs = s.run();
            sim.add(rs, secondsSince(s0));
            if (!rs.completed || s.takeOutput(0) != bm.expected)
                res.operationFailed("check run of " + bm.name + "/" +
                                    op + " after its edit");
            ++res.opsDone;
        }
        noteSim(res, round, sim);
        noteRound(res, round, "pnr.wirelength", wirelength);
        res.wirelength = res.det["pnr.wirelength"];
        noteRound(res, round, "edits", static_cast<double>(order.size()));
    });
}

} // namespace perfbench
