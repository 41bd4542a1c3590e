/**
 * tenancy: independently compiled apps time-share a page grid smaller
 * than their combined footprint. Each tenant is a pipeline of
 * add-constant stages; a round admits every tenant into a fresh
 * TenantScheduler, submits its batches, runs the scheduler to
 * completion and checks every batch against the sum the benchmark
 * computes itself. No faults are injected.
 *
 * The unit operation is one TenantScheduler::run; its simulated
 * length (SchedStats::virtualCycles) is set by the checkpoint /
 * reinstate swaps and the DRR slice policy.
 */

#include <memory>

#include "bench.h"
#include "fabric/device.h"
#include "ir/builder.h"
#include "pld/compiler.h"
#include "sys/tenancy.h"

namespace perfbench {

using namespace pld;

namespace {

/** Pipeline stages per tenant: 18 pages against an 8-page grid. */
const std::vector<int> kStages = {2, 3, 4, 2, 3, 4};
constexpr int kFabricPages = 8;
constexpr int kWords = 512;
constexpr int kBatches = 2;

ir::OperatorFn
makeAdd(const std::string &name, uint32_t k)
{
    ir::OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    b.forLoop(0, kWords, [&](ir::Ex) {
        b.write(out, b.read(in).bitcast(ir::Type::u(32)) +
                         static_cast<int64_t>(k));
    });
    return b.finish();
}

struct Tenant
{
    std::string name;
    ir::Graph graph;
    /** Sum of the stage constants: the reference for every word. */
    uint32_t addend = 0;
};

Tenant
makeTenant(int t, int stages, Rng &rng)
{
    Tenant tn;
    tn.name = "t" + std::to_string(t);
    ir::GraphBuilder gb(tn.name);
    auto wire = gb.extIn("I");
    auto out = gb.extOut("O");
    for (int s = 0; s < stages; ++s) {
        uint32_t k = static_cast<uint32_t>(rng.below(1u << 20));
        tn.addend += k;
        auto next = s + 1 == stages ? out : gb.wire();
        gb.inst(makeAdd(tn.name + "_s" + std::to_string(s), k), {wire},
                {next});
        wire = next;
    }
    tn.graph = gb.finish();
    return tn;
}

struct Packed
{
    std::unique_ptr<flow::PldCompiler> pc;
    std::vector<flow::AppBuild> builds;
    flow::TenantPack pack;
};

} // namespace

void
runTenancy(const Options &opts, Result &res)
{
    const fabric::Device dev = fabric::makeU50();
    Rng rng(opts.seed);
    std::vector<Tenant> tenants;
    for (size_t t = 0; t < kStages.size(); ++t)
        tenants.push_back(makeTenant(static_cast<int>(t), kStages[t], rng));

    auto packed = repeatSetup(res, [&](int) {
        auto p = std::make_unique<Packed>();
        p->pc = std::make_unique<flow::PldCompiler>(dev);
        p->builds.reserve(tenants.size());
        std::vector<flow::TenantAppRef> refs;
        for (const Tenant &t : tenants) {
            p->builds.push_back(
                p->pc->build(t.graph, flow::OptLevel::O1));
            refs.push_back({t.name, &t.graph, &p->builds.back()});
        }
        p->pack = p->pc->packTenantApps(refs);
        if (p->pack.specs.size() != tenants.size())
            throw std::runtime_error("packTenantApps rejected a tenant");
        return p;
    });

    for (const flow::AppBuild &b : packed->builds)
        res.wirelength += routedWirelength(b);

    sys::TenantLimits limits;
    limits.fabricPages = kFabricPages;
    runLoop(opts, res, [&](uint64_t round) {
        sys::TenantScheduler sched(limits);
        std::vector<int> ids;
        for (const auto &spec : packed->pack.specs) {
            sys::AdmitResult a = sched.admit(spec);
            if (!a.accepted)
                throw std::runtime_error("admit " + spec.name + ": " +
                                         a.diag.detail);
            ids.push_back(a.tenantId);
        }
        std::vector<std::vector<std::vector<uint32_t>>> inputs(
            tenants.size());
        for (size_t t = 0; t < tenants.size(); ++t) {
            for (int b = 0; b < kBatches; ++b) {
                std::vector<uint32_t> words(kWords);
                for (auto &w : words)
                    w = static_cast<uint32_t>(rng.next());
                if (!sched.submit(ids[t], {words}).accepted)
                    throw std::runtime_error("submit to " +
                                             tenants[t].name +
                                             " rejected");
                inputs[t].push_back(std::move(words));
            }
        }

        auto t0 = Clock::now();
        sys::SchedStats ss = sched.run();
        double runS = secondsSince(t0);
        res.opMs.push_back(runS * 1e3);
        ++res.opsDone;
        if (!ss.allWorkDone)
            res.fail("scheduler stopped before all work was done");

        for (size_t t = 0; t < tenants.size(); ++t) {
            std::vector<sys::BatchOutput> outs = sched.takeOutput(ids[t]);
            for (int b = 0; b < kBatches; ++b) {
                ++res.attempted;
                bool ok = static_cast<size_t>(b) < outs.size() &&
                          outs[b].streams.size() == 1;
                if (ok) {
                    const auto &got = outs[b].streams[0];
                    const auto &in = inputs[t][static_cast<size_t>(b)];
                    ok = got.size() == in.size();
                    for (size_t i = 0; ok && i < in.size(); ++i)
                        ok = got[i] == in[i] + tenants[t].addend;
                }
                if (!ok)
                    res.operationFailed("batch " + std::to_string(b) +
                                        " of tenant " + tenants[t].name);
            }
        }

        uint64_t drain = 0, reinstate = 0, served = 0;
        for (const auto &ts : ss.tenants) {
            drain += ts.checkpointCycles;
            reinstate += ts.reinstateCycles;
            served += ts.servedPageCycles;
        }
        if (round == 0)
            res.simCyclesRound = ss.virtualCycles;
        res.samples["sim.cycles"].push_back(
            static_cast<double>(ss.virtualCycles));
        res.samples["sim.host_s"].push_back(runS);
        noteRound(res, round, "tenancy.cycles",
                  static_cast<double>(ss.virtualCycles));
        noteRound(res, round, "tenant.slices",
                  static_cast<double>(ss.slices));
        noteRound(res, round, "tenant.evictions",
                  static_cast<double>(ss.evictions));
        noteRound(res, round, "tenant.instatements",
                  static_cast<double>(ss.instatements));
        noteRound(res, round, "tenant.drain_cycles",
                  static_cast<double>(drain));
        noteRound(res, round, "tenant.reinstate_cycles",
                  static_cast<double>(reinstate));
        noteRound(res, round, "tenant.page_cycles_served",
                  static_cast<double>(served));
    });
}

} // namespace perfbench
