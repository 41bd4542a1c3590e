/**
 * Cycle pins: exact simulated-cycle numbers for the system
 * simulator's stepping paths — a linked NoC run, a direct-link run,
 * a live mid-run swap, synchronous swaps under config-channel
 * faults, a checkpoint drain, and a multi-tenant schedule with
 * evictions. Every number below is a deterministic function of the
 * simulator; a refactor of the stepping code that moves any of them
 * changed behaviour, not just structure. A deliberate timing change
 * updates these pins and says so.
 */

#include <gtest/gtest.h>

#include "hls/schedule.h"
#include "ir/builder.h"
#include "rvgen/codegen.h"
#include "sys/system.h"
#include "sys/tenancy.h"

using namespace pld;
using namespace pld::ir;
using sys::PageBinding;
using sys::PageImpl;
using sys::RunStats;
using sys::SchedStats;
using sys::SwapOutcome;
using sys::SwapResult;
using sys::SystemConfig;
using sys::SystemSim;
using sys::TenantLimits;
using sys::TenantScheduler;
using sys::TenantSpec;

namespace {

OperatorFn
makeAddK(const std::string &name, int k, int n)
{
    OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    b.forLoop(0, n, [&](Ex) {
        b.write(out, b.read(in).bitcast(Type::s(32)) + k);
    });
    return b.finish();
}

Graph
makePipeline(int n)
{
    GraphBuilder gb("pipe");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto w1 = gb.wire();
    gb.inst(makeAddK("a1", 1, n), {in}, {w1});
    gb.inst(makeAddK("a2", 10, n), {w1}, {out});
    return gb.finish();
}

std::vector<uint32_t>
iota(int n, uint32_t base = 0)
{
    std::vector<uint32_t> v;
    for (int i = 0; i < n; ++i)
        v.push_back(base + static_cast<uint32_t>(i));
    return v;
}

PageBinding
hwBinding(const Graph &g, int op, int page)
{
    PageBinding b;
    b.opIdx = op;
    b.pageId = page;
    b.impl = PageImpl::Hw;
    b.cyclesPerOp = hls::analyzeOperator(g.ops[op].fn).cyclesPerOp();
    b.imageBytes = 512;
    b.imageHash = 0xabcd0000ull + static_cast<uint64_t>(page);
    return b;
}

PageBinding
swBinding(const Graph &g, int op, int page)
{
    PageBinding b;
    b.opIdx = op;
    b.pageId = page;
    b.impl = PageImpl::Softcore;
    b.elf = rvgen::compileToRiscv(g.ops[op].fn).elf;
    b.imageBytes = b.elf.footprintBytes();
    return b;
}

PageBinding
retimed(const PageBinding &old, uint64_t image_bytes,
        double cycles_per_op)
{
    PageBinding nb = old;
    nb.cyclesPerOp = cycles_per_op;
    nb.imageBytes = image_bytes;
    nb.imageHash = 0x5eedf00dull + image_bytes;
    return nb;
}

SystemConfig
nocCfg(const std::string &faults = "")
{
    SystemConfig cfg;
    cfg.useNoc = true;
    if (!faults.empty())
        cfg.faults = FaultPlan::parse(faults);
    return cfg;
}

void
expectNoc(const noc::NocStats &s, uint64_t injected, uint64_t delivered,
          uint64_t deflections, uint64_t config_applied,
          uint64_t total_hops)
{
    EXPECT_EQ(s.injected, injected);
    EXPECT_EQ(s.delivered, delivered);
    EXPECT_EQ(s.deflections, deflections);
    EXPECT_EQ(s.configApplied, config_applied);
    EXPECT_EQ(s.totalHops, total_hops);
}

} // namespace

TEST(CyclePins, NocPipelineRun)
{
    const int n = 64;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  nocCfg());
    sim.loadInput(0, iota(n));
    RunStats rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(rs.cycles, 657u);
    EXPECT_EQ(rs.configCycles, 21u);
    expectNoc(rs.noc, 195, 195, 0, 3, 1491);

    // A second batch re-arms the pages and relinks nothing.
    sim.loadInput(0, iota(n, 100));
    rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(rs.cycles, 657u);
    EXPECT_EQ(rs.configCycles, 0u);
    expectNoc(rs.noc, 387, 387, 0, 3, 2963);
}

TEST(CyclePins, MixedSoftcoreNocRun)
{
    const int n = 16;
    Graph g = makePipeline(n);
    SystemSim sim(g, {swBinding(g, 0, 3), hwBinding(g, 1, 9)},
                  nocCfg());
    sim.loadInput(0, iota(n));
    RunStats rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(rs.cycles, 2112u);
    EXPECT_EQ(rs.configCycles, 21u);
    expectNoc(rs.noc, 51, 51, 0, 3, 419);
}

TEST(CyclePins, DirectModeRun)
{
    const int n = 64;
    Graph g = makePipeline(n);
    SystemConfig cfg;
    cfg.useNoc = false;
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 1)}, cfg);
    sim.loadInput(0, iota(n));
    RunStats rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(rs.cycles, 74u);
    EXPECT_EQ(rs.configCycles, 0u);
    expectNoc(rs.noc, 0, 0, 0, 0, 0);
}

TEST(CyclePins, MidRunRequestSwap)
{
    const int n = 256;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  nocCfg());
    ASSERT_TRUE(
        sim.requestSwap(0, retimed(hwBinding(g, 0, 0), 1024, 3.0), 50)
            .accepted);
    sim.loadInput(0, iota(n));
    RunStats rs = sim.run();
    ASSERT_TRUE(rs.completed);
    ASSERT_EQ(sim.swapHistory().size(), 1u);
    const SwapResult &r = sim.swapHistory()[0];
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.cycles, 275u);
    EXPECT_EQ(r.packets, 8u);
    EXPECT_EQ(rs.cycles, 2841u);
    EXPECT_EQ(rs.configCycles, 21u);
    expectNoc(rs.noc, 771, 771, 0, 3, 5907);
}

TEST(CyclePins, SyncSwapUnderConfigCorruptAndDmaStall)
{
    // Both attempts open with a stalled config channel; attempt 0
    // then exhausts its retransmits on packet 0 and rolls back, and
    // attempt 1 streams clean.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  nocCfg("config_corrupt:a1*7;dma_stall:a1*17"));
    SwapResult r =
        sim.swapPage(0, retimed(hwBinding(g, 0, 0), 640, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.cycles, 630u);
    EXPECT_EQ(r.retransmits, 4u);
    EXPECT_EQ(r.rollbacks, 1);
    EXPECT_EQ(r.attempts, 2);
    EXPECT_EQ(r.crcErrors, 5u);
    EXPECT_EQ(r.dmaStalls, 2u);
}

TEST(CyclePins, SyncSwapUnderDmaStall)
{
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  nocCfg("dma_stall:a2*1"));
    SwapResult r =
        sim.swapPage(5, retimed(hwBinding(g, 1, 5), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.cycles, 205u);
    EXPECT_EQ(r.retransmits, 0u);
    EXPECT_EQ(r.rollbacks, 0);
    EXPECT_EQ(r.dmaStalls, 1u);
}

TEST(CyclePins, DrainForCheckpoint)
{
    const int n = 256;
    Graph g = makePipeline(n);

    // A slice yields mid-batch with flits in transit: the drain
    // quiesces the fabric.
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  nocCfg());
    sim.loadInput(0, iota(n));
    RunStats rs = sim.runSlice(300);
    EXPECT_FALSE(rs.completed);
    EXPECT_EQ(rs.cycles, 300u);
    EXPECT_EQ(sim.drainForCheckpoint(), 151u);

    // A slice yields with a live swap still streaming: the drain
    // first runs the swap to completion with pages frozen.
    SystemSim live(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                   nocCfg());
    ASSERT_TRUE(
        live.requestSwap(5, retimed(hwBinding(g, 1, 5), 2048, 2.0), 100)
            .accepted);
    live.loadInput(0, iota(n));
    rs = live.runSlice(400);
    EXPECT_FALSE(rs.completed);
    EXPECT_EQ(live.drainForCheckpoint(), 253u);
    ASSERT_EQ(live.swapHistory().size(), 1u);
    EXPECT_EQ(live.swapHistory()[0].outcome, SwapOutcome::Swapped);
    EXPECT_EQ(live.swapHistory()[0].cycles, 553u);

    // The checkpointed tenant resumes and completes.
    rs = live.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(rs.cycles, 2461u);
    EXPECT_EQ(rs.configCycles, 0u);
}

TEST(CyclePins, SliceYieldsMidSwap)
{
    // The next slice's linking phase steps only the network: the
    // swap left streaming by the yield waits for the run to resume.
    const int n = 256;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  nocCfg());
    ASSERT_TRUE(
        sim.requestSwap(5, retimed(hwBinding(g, 1, 5), 2048, 2.0), 100)
            .accepted);
    sim.loadInput(0, iota(n));
    RunStats rs = sim.runSlice(400);
    EXPECT_FALSE(rs.completed);
    EXPECT_TRUE(sim.swapHistory().empty()) << "swap still streaming";
    rs = sim.runSlice(100000);
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(rs.cycles, 2713u);
    EXPECT_EQ(rs.configCycles, 141u);
    ASSERT_EQ(sim.swapHistory().size(), 1u);
    EXPECT_EQ(sim.swapHistory()[0].cycles, 553u);
}

TEST(CyclePins, TenantSchedulerWithEvictions)
{
    const int n = 96;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.fabricPages = 2;
    lim.sliceCycles = 300;
    lim.drrQuantum = 600;
    TenantScheduler sched(lim);
    std::vector<int> ids;
    for (int t = 0; t < 3; ++t) {
        TenantSpec spec;
        spec.name = "t" + std::to_string(t);
        spec.graph = &g;
        spec.bindings = {hwBinding(g, 0, 0), hwBinding(g, 1, 5)};
        spec.sysCfg.useNoc = true;
        int id = sched.admit(spec).tenantId;
        ASSERT_GE(id, 0);
        ASSERT_TRUE(
            sched.submit(id, {iota(n, static_cast<uint32_t>(1000 * t))})
                .accepted);
        ids.push_back(id);
    }
    SchedStats ss = sched.run();
    ASSERT_TRUE(ss.allWorkDone);
    EXPECT_EQ(ss.virtualCycles, 4914u);
    EXPECT_EQ(ss.evictions, 8u);
    EXPECT_EQ(ss.instatements, 9u);
    ASSERT_EQ(ss.tenants.size(), 3u);
    // The three tenants are identical, so each pays the same.
    for (size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(ss.tenants[t].checkpointCycles, 271u) << "tenant " << t;
        EXPECT_EQ(ss.tenants[t].reinstateCycles, 564u) << "tenant " << t;
    }
}
