#include "sys/system.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace pld {
namespace sys {

using dataflow::FifoReadPort;
using dataflow::FifoWritePort;
using dataflow::WordFifo;
using interp::RunStatus;

const char *
swapOutcomeName(SwapOutcome o)
{
    switch (o) {
      case SwapOutcome::Swapped: return "swapped";
      case SwapOutcome::RolledBack: return "rolled_back";
      case SwapOutcome::Quarantined: return "quarantined";
      case SwapOutcome::Rejected: return "rejected";
    }
    return "?";
}

SystemSim::SystemSim(const ir::Graph &g,
                     const std::vector<PageBinding> &bindings,
                     const SystemConfig &cfg)
    : g(g), cfg(cfg),
      injector(cfg.faults.empty() ? FaultPlan::fromEnv() : cfg.faults)
{
    pld_assert(bindings.size() == g.ops.size(),
               "need one page binding per operator");
    pages.resize(bindings.size());
    for (size_t i = 0; i < bindings.size(); ++i)
        pages[bindings[i].opIdx].binding = bindings[i];
    for (size_t oi = 0; oi < g.ops.size(); ++oi)
        pages[oi].fn = &g.ops[oi].fn;

    hostIn.resize(g.extInputs.size());
    hostInPos.assign(g.extInputs.size(), 0);
    hostOut.resize(g.extOutputs.size());

    if (cfg.useNoc)
        buildNocSystem();
    else
        buildDirectSystem();

    // Instantiate execution contexts now that ports exist.
}

void
SystemSim::buildNocSystem()
{
    int needed = cfg.dmaLeafBase +
                 static_cast<int>(g.extInputs.size() +
                                  g.extOutputs.size());
    net = std::make_unique<noc::BftNoc>(std::max(32, needed),
                                        cfg.nocPortsPerLeaf,
                                        cfg.nocFifoDepth);

    // Operator ports hang off their page's leaf interface.
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const auto &fn = g.ops[oi].fn;
        int leaf = pages[oi].binding.pageId;
        pld_assert(static_cast<int>(fn.ports.size()) <=
                       cfg.nocPortsPerLeaf,
                   "%s has more ports than the leaf interface",
                   fn.name.c_str());
        std::vector<dataflow::StreamPort *> ports;
        for (size_t pi = 0; pi < fn.ports.size(); ++pi) {
            if (fn.ports[pi].dir == ir::PortDir::In)
                ports.push_back(net->inPort(leaf, int(pi)));
            else
                ports.push_back(net->outPort(leaf, int(pi)));
        }
        pages[oi].ports = ports;
        if (pages[oi].binding.impl == PageImpl::Hw) {
            pages[oi].exec = std::make_unique<interp::OperatorExec>(
                fn, ports);
        } else {
            pages[oi].core = std::make_unique<rv32::Core>(
                pages[oi].binding.elf, ports);
        }
    }

    // DMA endpoints.
    for (size_t i = 0; i < g.extInputs.size(); ++i) {
        int leaf = cfg.dmaLeafBase + static_cast<int>(i);
        extInPorts.push_back(net->outPort(leaf, 0));
    }
    for (size_t j = 0; j < g.extOutputs.size(); ++j) {
        int leaf = cfg.dmaLeafBase +
                   static_cast<int>(g.extInputs.size() + j);
        extOutPorts.push_back(net->inPort(leaf, 0));
    }

    // Linking: the loader sends config packets from the DMA leaf
    // programming every producer's destination register (Sec 4.3).
    int linker_leaf = cfg.dmaLeafBase;
    int link_idx = 0;
    for (const auto &l : g.links) {
        int src_leaf, src_port;
        if (l.src.isExternal()) {
            src_leaf = cfg.dmaLeafBase + l.src.port;
            src_port = 0;
        } else {
            src_leaf = pages[l.src.op].binding.pageId;
            src_port = l.src.port;
        }
        int dst_leaf, dst_port;
        if (l.dst.isExternal()) {
            dst_leaf = cfg.dmaLeafBase +
                       static_cast<int>(g.extInputs.size()) +
                       l.dst.port;
            dst_port = 0;
        } else {
            dst_leaf = pages[l.dst.op].binding.pageId;
            dst_port = l.dst.port;
        }
        net->sendConfig(linker_leaf, src_leaf, src_port, dst_leaf,
                        dst_port);
        // Each config packet is one reconfiguration event (Sec 4.3).
        obs::instant("sys", "sys.link.cfg")
            .arg("link", static_cast<int64_t>(link_idx++))
            .arg("dst_leaf", static_cast<int64_t>(dst_leaf));
        obs::count("sys.config_packets");
    }
}

void
SystemSim::buildDirectSystem()
{
    // Monolithic designs: dedicated FIFO per link (Sec 6.3 kernel
    // generator), no network.
    directFifos.reserve(g.links.size());
    for (const auto &l : g.links) {
        bool external = l.src.isExternal() || l.dst.isExternal();
        directFifos.push_back(std::make_unique<WordFifo>(
            external ? 0 : cfg.directFifoDepth));
    }

    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const auto &fn = g.ops[oi].fn;
        std::vector<dataflow::StreamPort *> ports;
        for (size_t pi = 0; pi < fn.ports.size(); ++pi) {
            ir::Endpoint ep{static_cast<int>(oi),
                            static_cast<int>(pi)};
            if (fn.ports[pi].dir == ir::PortDir::In) {
                int li = g.linkInto(ep);
                portStorage.push_back(std::make_unique<FifoReadPort>(
                    *directFifos[li]));
            } else {
                int li = g.linkFrom(ep);
                portStorage.push_back(std::make_unique<FifoWritePort>(
                    *directFifos[li]));
            }
            ports.push_back(portStorage.back().get());
        }
        pages[oi].ports = ports;
        if (pages[oi].binding.impl == PageImpl::Hw) {
            pages[oi].exec = std::make_unique<interp::OperatorExec>(
                fn, ports);
        } else {
            pages[oi].core = std::make_unique<rv32::Core>(
                pages[oi].binding.elf, ports);
        }
    }

    for (size_t i = 0; i < g.extInputs.size(); ++i) {
        int li = g.linkFrom({ir::Endpoint::kExternal,
                             static_cast<int>(i)});
        portStorage.push_back(
            std::make_unique<FifoWritePort>(*directFifos[li]));
        extInPorts.push_back(portStorage.back().get());
    }
    for (size_t j = 0; j < g.extOutputs.size(); ++j) {
        int li = g.linkInto({ir::Endpoint::kExternal,
                             static_cast<int>(j)});
        portStorage.push_back(
            std::make_unique<FifoReadPort>(*directFifos[li]));
        extOutPorts.push_back(portStorage.back().get());
    }
}

void
SystemSim::loadInput(int ext_idx, const std::vector<uint32_t> &words)
{
    auto &buf = hostIn[static_cast<size_t>(ext_idx)];
    buf.insert(buf.end(), words.begin(), words.end());
}

bool
SystemSim::anyInputReadable(const Page &page) const
{
    for (size_t pi = 0; pi < page.fn->ports.size(); ++pi) {
        if (page.fn->ports[pi].dir == ir::PortDir::In &&
            page.ports[pi]->canRead())
            return true;
    }
    return false;
}

void
SystemSim::rearmPages()
{
    bool new_input = false;
    for (size_t i = 0; i < hostIn.size(); ++i)
        new_input |= hostInPos[i] < hostIn[i].size();
    if (!new_input)
        return;
    // A completed page is reset to its entry state so the next batch
    // re-runs it; pages that never finished keep their progress.
    // A restartable page that starved out (a function-changing swap
    // or a quarantine landed mid-stream) counted as quiescent for
    // run() completion and must equally restart from entry: without
    // this, a quarantined page carries a half-executed fallback core
    // into the next batch and consumes the wrong number of words.
    // Re-arming from page.binding keeps a quarantined page pinned to
    // its softcore image — the binding was rewritten at quarantine.
    for (size_t i = 0; i < pages.size(); ++i) {
        auto &page = pages[i];
        if (!page.done && !(page.restartable && page.starved))
            continue;
        page.done = false;
        page.budget = 0;
        page.starved = false;
        if (i < pageDoneMarked.size())
            pageDoneMarked[i] = false;
        if (page.exec)
            page.exec->reset();
        if (page.core)
            page.core = std::make_unique<rv32::Core>(page.binding.elf,
                                                     page.ports);
    }
}

bool
SystemSim::stepPages(uint64_t cycle)
{
    bool all_done = true;
    if (pageDoneMarked.size() != pages.size())
        pageDoneMarked.assign(pages.size(), false);
    size_t page_idx = static_cast<size_t>(-1);
    for (auto &page : pages) {
        ++page_idx;
        if (page.done)
            continue;
        if (page.paused) {
            // Frozen by an in-flight swap; the system cannot complete
            // while the swap engine holds the page.
            all_done = false;
            continue;
        }
        if (page.restartable && page.starved) {
            if (!anyInputReadable(page))
                continue; // quiescent: restarted page with no work
            page.starved = false;
        }
        if (page.binding.impl == PageImpl::Hw) {
            page.budget = std::min(page.budget + 1.0, 8.0);
            while (page.budget > 0 && !page.done) {
                const auto &st = page.exec->stats();
                uint64_t before = st.computeOps + st.memOps;
                RunStatus rs = page.exec->run(1);
                uint64_t delta =
                    (st.computeOps + st.memOps) - before;
                page.budget -=
                    std::max<double>(double(delta), 0.25) *
                    page.binding.cyclesPerOp;
                if (rs == RunStatus::BlockedOnRead ||
                    rs == RunStatus::BlockedOnWrite) {
                    ++statStalls;
                    if (page.restartable &&
                        rs == RunStatus::BlockedOnRead &&
                        !anyInputReadable(page))
                        page.starved = true;
                    break;
                }
                if (page.exec->done()) {
                    page.done = true;
                }
            }
        } else {
            while (!page.done &&
                   page.core->cycles() - page.coreSyncCycles <
                       cycle - page.coreSyncRun) {
                rv32::CoreStatus st = page.core->step(16);
                if (st == rv32::CoreStatus::Halted) {
                    page.done = true;
                } else if (st == rv32::CoreStatus::Trapped) {
                    pld_fatal("softcore trapped: %s (pc=0x%x)",
                              page.core->trapReason().c_str(),
                              page.core->pc());
                } else if (st != rv32::CoreStatus::Running) {
                    ++statStalls;
                    if (page.restartable &&
                        st == rv32::CoreStatus::BlockedOnRead &&
                        !anyInputReadable(page))
                        page.starved = true;
                    break; // blocked on a stream
                }
            }
        }
        if (page.done && !pageDoneMarked[page_idx]) {
            pageDoneMarked[page_idx] = true;
            obs::instant("sys", "sys.page.done")
                .arg("op", static_cast<int64_t>(page_idx))
                .arg("cycle", static_cast<int64_t>(cycle));
        }
        all_done &= page.done || (page.restartable && page.starved);
    }
    return all_done;
}

std::string
SystemSim::faultSite(const Page &page) const
{
    if (cfg.faultScope.empty())
        return page.fn->name;
    return cfg.faultScope + "/" + page.fn->name;
}

RunStats
SystemSim::run(uint64_t max_cycles)
{
    return runInternal(max_cycles, /*slice=*/false);
}

RunStats
SystemSim::runSlice(uint64_t cycles)
{
    return runInternal(cycles, /*slice=*/true);
}

RunStats
SystemSim::runInternal(uint64_t max_cycles, bool slice)
{
    RunStats rs;
    obs::Span run_span("sys", slice ? "sys.slice" : "sys.run");
    statStalls = 0;

    rearmPages();
    // Re-base every softcore's clock sync so carried-over cores
    // (batch 2+, quarantine fallbacks) track this run's cycle 0.
    for (auto &page : pages) {
        if (page.core) {
            page.coreSyncRun = 0;
            page.coreSyncCycles = page.core->cycles();
        }
    }

    // Linking phase: drain config packets (counts separately; this is
    // the seconds-scale "linking" cost the paper contrasts with
    // recompilation).
    if (net) {
        obs::Span link_span("sys", "sys.link");
        // Transit-idle, not full idle: a checkpointed tenant resumes
        // with words parked in leaf FIFOs, which only drain once the
        // pages below start executing.
        while (!net->transitIdle()) {
            net->stepCycle();
            ++rs.configCycles;
            pld_assert(rs.configCycles < 1000000,
                       "linking never converged");
        }
        link_span.arg("config_cycles",
                      static_cast<int64_t>(rs.configCycles));
    }

    // One flow arrow per external stream: DMA start at cycle 0,
    // finish when the stream's last word moves. The sim is
    // single-threaded and cycle-deterministic, so cycle args are
    // structural.
    uint64_t words_in = 0, words_out = 0;
    std::vector<bool> in_flow_open(extInPorts.size(), false);
    for (size_t i = 0; i < extInPorts.size(); ++i) {
        if (hostInPos[i] < hostIn[i].size()) {
            obs::flowStart("sys", "sys.dma.in", i + 1)
                .arg("stream", static_cast<int64_t>(i))
                .arg("words",
                     static_cast<int64_t>(hostIn[i].size() -
                                          hostInPos[i]));
            in_flow_open[i] = true;
        }
    }

    uint64_t cycle = 0;
    for (; cycle < max_cycles; ++cycle) {
        // Swap engine: start any due queued swap, then advance it.
        if (!swapActive() && !swapQueue.empty() &&
            swapQueue.front().atCycle <= cycle) {
            SwapRequest req = std::move(swapQueue.front());
            swapQueue.erase(swapQueue.begin());
            beginSwap(req.pageId, req.nb, std::move(req.newFn), true);
        }
        if (swapActive())
            stepSwap(cycle);

        // DMA: move host words.
        for (size_t i = 0; i < extInPorts.size(); ++i) {
            for (int w = 0; w < cfg.dmaWordsPerCycle; ++w) {
                if (hostInPos[i] < hostIn[i].size() &&
                    extInPorts[i]->canWrite()) {
                    extInPorts[i]->write(hostIn[i][hostInPos[i]++]);
                    ++words_in;
                }
            }
            if (in_flow_open[i] &&
                hostInPos[i] == hostIn[i].size()) {
                in_flow_open[i] = false;
                obs::flowFinish("sys", "sys.dma.in", i + 1)
                    .arg("stream", static_cast<int64_t>(i))
                    .arg("cycle", static_cast<int64_t>(cycle));
            }
        }
        for (size_t j = 0; j < extOutPorts.size(); ++j) {
            while (extOutPorts[j]->canRead()) {
                hostOut[j].push_back(extOutPorts[j]->read());
                ++words_out;
            }
        }

        bool pages_done = stepPages(cycle);
        if (net)
            net->stepCycle();

        if (pages_done && !swapActive()) {
            if (!swapQueue.empty()) {
                // Work ran out before the requested start cycle:
                // start the swap now rather than stranding it.
                SwapRequest req = std::move(swapQueue.front());
                swapQueue.erase(swapQueue.begin());
                beginSwap(req.pageId, req.nb, std::move(req.newFn),
                          true);
                continue;
            }
            bool inputs_done = true;
            for (size_t i = 0; i < hostIn.size(); ++i)
                inputs_done &= (hostInPos[i] == hostIn[i].size());
            bool drained = !net || net->idle();
            for (size_t j = 0; j < extOutPorts.size() && drained;
                 ++j) {
                drained &= !extOutPorts[j]->canRead();
            }
            // The NoC may have just delivered a starved restartable
            // page's last word into its leaf input FIFO, which
            // net->idle() does not see: that page still has work.
            for (const auto &page : pages)
                drained &= page.done || !anyInputReadable(page);
            if (inputs_done && drained) {
                ++cycle;
                rs.completed = true;
                break;
            }
        }
    }

    rs.cycles = cycle;
    if (net)
        rs.noc = net->stats();
    run_span.arg("cycles", static_cast<int64_t>(rs.cycles));
    run_span.arg("completed",
                 static_cast<int64_t>(rs.completed ? 1 : 0));
    if (!rs.completed && !slice) {
        // A run that hit max_cycles stalled; make that loud in the
        // trace instead of a silent completed=false. A slice that
        // hit its budget merely yielded back to the scheduler.
        obs::instant("sys", "sys.run.timeout")
            .arg("cycles", static_cast<int64_t>(rs.cycles))
            .arg("max_cycles", static_cast<int64_t>(max_cycles));
        obs::count("sys.run.timeouts");
    }
    obs::count(slice ? "sys.slices" : "sys.runs");
    obs::count("sys.cycles", static_cast<int64_t>(rs.cycles));
    obs::count("sys.config_cycles",
               static_cast<int64_t>(rs.configCycles));
    obs::count("sys.dma.words.in", static_cast<int64_t>(words_in));
    obs::count("sys.dma.words.out", static_cast<int64_t>(words_out));
    obs::count("sys.page.stalls",
               static_cast<int64_t>(statStalls));
    return rs;
}

std::vector<uint32_t>
SystemSim::takeOutput(int ext_idx)
{
    return std::move(hostOut[static_cast<size_t>(ext_idx)]);
}

// ---------------------------------------------------------------------
// Hot-swap engine
// ---------------------------------------------------------------------

int
SystemSim::findPage(int page_id) const
{
    for (size_t i = 0; i < pages.size(); ++i) {
        if (pages[i].binding.pageId == page_id)
            return static_cast<int>(i);
    }
    return -1;
}

bool
SystemSim::pageQuarantined(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)].quarantined;
}

PageImpl
SystemSim::pageImpl(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)].binding.impl;
}

const PageBinding &
SystemSim::pageBinding(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)].binding;
}

uint64_t
SystemSim::packetCycles() const
{
    // One 32-bit config word per cycle over the ICAP-style channel.
    return std::max<uint64_t>(1, cfg.swapPacketBytes / 4);
}

uint64_t
SystemSim::watchdogBudget() const
{
    if (cfg.swapWatchdogCycles)
        return cfg.swapWatchdogCycles;
    // Auto: generous enough that a fault-free stream — even one that
    // retransmits every packet to the limit — never trips it, so the
    // watchdog only ever reports genuine hangs.
    uint64_t max_backoff =
        cfg.swapBackoffBase
        << std::min<uint64_t>(
               static_cast<uint64_t>(cfg.swapMaxRetransmits), 10);
    uint64_t per_tx = 1 + packetCycles() + cfg.swapAckTimeoutCycles +
                      max_backoff;
    uint64_t per_packet =
        per_tx * static_cast<uint64_t>(cfg.swapMaxRetransmits + 1);
    return swap.packetsTotal * per_packet + cfg.swapDmaStallCycles +
           cfg.swapActivationCycles + 256;
}

SwapResult
SystemSim::swapPage(int page_id, const PageBinding &nb,
                    const ir::OperatorFn *new_fn)
{
    std::unique_ptr<ir::OperatorFn> fn_copy;
    if (new_fn)
        fn_copy = std::make_unique<ir::OperatorFn>(*new_fn);
    beginSwap(page_id, nb, std::move(fn_copy), false);
    uint64_t guard = 0;
    while (swapActive()) {
        stepSwap(0);
        if (net)
            net->stepCycle();
        pld_assert(++guard < 100000000ull, "swap never terminated");
    }
    return swapLog.back();
}

SwapRequestResult
SystemSim::requestSwap(int page_id, const PageBinding &nb,
                       uint64_t at_cycle, const ir::OperatorFn *new_fn)
{
    // Validate at queueing time: a conflicting or doomed request is
    // rejected with a structured diagnostic instead of being queued
    // and failing long after the caller stopped looking.
    const auto reject = [&](CompileCode code, bool retriable,
                            std::string why) {
        SwapRequestResult rr;
        rr.diag.code = code;
        rr.diag.stage = CompileStage::Swap;
        rr.diag.severity = DiagSeverity::Error;
        rr.diag.page = page_id;
        rr.diag.retriable = retriable;
        rr.diag.detail = std::move(why);
        obs::count("sys.swap.request_rejected");
        obs::instant("sys", "sys.swap.request_rejected")
            .arg("page", static_cast<int64_t>(page_id))
            .arg("why", rr.diag.detail);
        return rr;
    };

    if (swapQueue.size() >= cfg.swapQueueDepth)
        return reject(CompileCode::SwapRejected, /*retriable=*/true,
                      "pending-swap queue full (" +
                          std::to_string(cfg.swapQueueDepth) +
                          " entries); retry after a queued swap "
                          "completes");
    int idx = findPage(page_id);
    if (idx < 0)
        return reject(CompileCode::SwapRejected, /*retriable=*/false,
                      "no page at leaf " + std::to_string(page_id));
    if (pages[static_cast<size_t>(idx)].quarantined)
        return reject(CompileCode::SwapRejected, /*retriable=*/false,
                      "page is quarantined (pinned to its softcore "
                      "fallback); swaps are rejected");
    for (const auto &q : swapQueue) {
        if (q.pageId == page_id)
            return reject(
                CompileCode::SwapRejected, /*retriable=*/true,
                "a queued swap already targets this page; "
                "conflicting images cannot be queued");
    }
    if (swapActive() &&
        pages[swap.pageIdx].binding.pageId == page_id)
        return reject(CompileCode::SwapRejected, /*retriable=*/true,
                      "a swap of this page is in flight");

    SwapRequest req;
    req.pageId = page_id;
    req.nb = nb;
    if (new_fn)
        req.newFn = std::make_unique<ir::OperatorFn>(*new_fn);
    req.atCycle = at_cycle;
    swapQueue.push_back(std::move(req));
    SwapRequestResult rr;
    rr.accepted = true;
    rr.diag.stage = CompileStage::Swap;
    return rr;
}

uint64_t
SystemSim::drainForCheckpoint()
{
    if (!net)
        return 0;
    uint64_t spent = 0;
    // A partial reconfiguration caught mid-stream cannot be
    // checkpointed — run the active swap to completion first (the
    // engine's own watchdog bounds this: it retries, rolls back, or
    // quarantines, but always terminates).
    while (swapActive()) {
        stepSwap(0);
        net->stepCycle();
        ++spent;
        pld_assert(spent < 100000000ull,
                   "checkpoint swap completion never terminated");
    }
    // Then quiesce the network fabric, not the leaf interfaces: with
    // every page frozen, words queued in leaf FIFOs cannot move (and
    // do not need to — that state survives reconfiguration in
    // place), but flits in switch registers must land before the
    // grid can be handed to another tenant.
    while (!net->transitIdle() && spent < cfg.swapDrainTimeoutCycles) {
        net->stepCycle();
        ++spent;
    }
    obs::count("sys.checkpoint.drain_cycles",
               static_cast<int64_t>(spent));
    return spent;
}

void
SystemSim::beginSwap(int page_id, const PageBinding &nb,
                     std::unique_ptr<ir::OperatorFn> new_fn,
                     bool in_run)
{
    pld_assert(net, "hot swap requires the NoC overlay (useNoc)");
    pld_assert(!swapActive(), "one swap at a time");
    swap = SwapState{};
    swap.inRun = in_run;
    swap.nb = nb;
    swap.newFn = std::move(new_fn);
    obs::count("sys.swap.requests");

    int idx = findPage(page_id);
    if (idx < 0 || pages[static_cast<size_t>(idx)].quarantined) {
        swap.result.outcome = SwapOutcome::Rejected;
        obs::count("sys.swap.rejected");
        obs::instant("sys", "sys.swap.rejected")
            .arg("page", static_cast<int64_t>(page_id));
        swapLog.push_back(swap.result);
        return;
    }
    swap.pageIdx = static_cast<size_t>(idx);
    Page &page = pages[swap.pageIdx];
    page.paused = true;
    swap.packetsTotal = std::max<uint64_t>(
        1, (nb.imageBytes + cfg.swapPacketBytes - 1) /
               cfg.swapPacketBytes);
    swap.phase = SwapPhase::Draining;
    swap.span = std::make_unique<obs::Span>("sys", "sys.swap");
    swap.span->arg("op", page.fn->name)
        .arg("page", static_cast<int64_t>(page_id))
        .arg("packets", static_cast<int64_t>(swap.packetsTotal));
    obs::instant("sys", "sys.swap.begin")
        .arg("op", page.fn->name)
        .arg("page", static_cast<int64_t>(page_id))
        .arg("packets", static_cast<int64_t>(swap.packetsTotal));
}

void
SystemSim::startAttempt()
{
    Page &page = pages[swap.pageIdx];
    swap.phase = SwapPhase::Streaming;
    swap.packetIdx = 0;
    swap.txCur = 0;
    swap.packetCycleLeft = 0;
    swap.ackWaitLeft = 0;
    swap.backoffLeft = 0;
    swap.stallLeft = 0;
    swap.stalledThisAttempt = false;
    swap.hung = false;
    swap.activateLeft = 0;
    swap.result.attempts = swap.attempt + 1;
    swap.watchdogDeadline = swap.elapsed + watchdogBudget();
    obs::instant("sys", "sys.swap.attempt")
        .arg("op", page.fn->name)
        .arg("attempt", static_cast<int64_t>(swap.attempt));
    if (injector.fires(FaultKind::DmaStall, faultSite(page),
                       swap.attempt * kFaultAttemptStride)) {
        swap.stallLeft = cfg.swapDmaStallCycles;
        swap.stalledThisAttempt = true;
        ++swap.result.dmaStalls;
        obs::count("sys.swap.dma_stalls");
    }
}

void
SystemSim::scheduleRetransmit()
{
    ++swap.txCur;
    if (swap.txCur > cfg.swapMaxRetransmits) {
        attemptFailed();
        return;
    }
    ++swap.result.retransmits;
    obs::count("sys.swap.retransmits");
    swap.backoffLeft = cfg.swapBackoffBase
                       << std::min(swap.txCur - 1, 10);
}

void
SystemSim::transmissionResolved()
{
    Page &page = pages[swap.pageIdx];
    const std::string op = faultSite(page);
    // Fault coordinate: swap attempt in the high bits, transmission
    // index in the low bits (clamped to the stride), packet ordinal
    // as the salt — the runtime mirror of the compile-ladder scheme.
    int coord = swap.attempt * kFaultAttemptStride +
                std::min(swap.txCur, kFaultAttemptStride - 1);
    uint64_t salt = swap.packetIdx;

    // Frame the packet: payload derived from the image content hash,
    // CRC-32 over the payload (the real check, not a modelled one).
    std::vector<uint8_t> payload(cfg.swapPacketBytes);
    for (size_t i = 0; i < payload.size(); i += 8) {
        Hasher h;
        h.u64(swap.nb.imageHash);
        h.u64(swap.packetIdx);
        h.u64(i);
        uint64_t w = h.digest();
        for (size_t b = 0; b < 8 && i + b < payload.size(); ++b)
            payload[i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
    uint32_t frame_crc = crc32(payload.data(), payload.size());

    if (injector.fires(FaultKind::ConfigDrop, op, coord, salt)) {
        // Packet lost in flight: the sender only learns via ack
        // timeout, then retransmits.
        ++swap.result.drops;
        obs::count("sys.swap.drops");
        swap.ackWaitLeft = std::max<uint64_t>(1,
                                              cfg.swapAckTimeoutCycles);
        return;
    }
    if (injector.fires(FaultKind::ConfigCorrupt, op, coord, salt)) {
        // Bit flip in flight; the page's CRC check catches it and
        // NAKs immediately.
        payload[static_cast<size_t>(coord) % payload.size()] ^=
            static_cast<uint8_t>(1u << (salt % 8));
        pld_assert(crc32(payload.data(), payload.size()) != frame_crc,
                   "CRC-32 failed to detect a single-bit corruption");
        ++swap.result.crcErrors;
        obs::count("sys.swap.crc_errors");
        scheduleRetransmit();
        return;
    }
    // Accepted: CRC verified, commit and move to the next packet.
    pld_assert(crc32(payload.data(), payload.size()) == frame_crc,
               "clean packet failed its own CRC");
    ++swap.result.packets;
    obs::count("sys.swap.packets");
    swap.txCur = 0;
    ++swap.packetIdx;
    if (swap.packetIdx == swap.packetsTotal) {
        swap.phase = SwapPhase::Activating;
        swap.activateLeft = std::max<uint64_t>(
            1, cfg.swapActivationCycles);
    }
}

void
SystemSim::attemptFailed()
{
    Page &page = pages[swap.pageIdx];
    // Roll back: re-stream the previous image fault-free (its frames
    // are known-good and the config channel fault window has passed);
    // the page's execution context was never torn down, so only the
    // streaming time is charged.
    ++swap.result.rollbacks;
    obs::count("sys.swap.rollbacks");
    obs::instant("sys", "sys.swap.rollback")
        .arg("op", page.fn->name)
        .arg("attempt", static_cast<int64_t>(swap.attempt));
    uint64_t old_packets = std::max<uint64_t>(
        1, (page.binding.imageBytes + cfg.swapPacketBytes - 1) /
               cfg.swapPacketBytes);
    swap.phase = SwapPhase::RollingBack;
    swap.rollbackLeft = old_packets * (packetCycles() + 1);
}

void
SystemSim::stepSwap(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    ++swap.elapsed;
    switch (swap.phase) {
      case SwapPhase::Idle:
        return;
      case SwapPhase::Draining:
        // A live (in-run) swap waits for the page's outbound traffic
        // to drain — the page keeps executing and empties its own
        // queues. A synchronous swap runs against a frozen fabric
        // (checkpoint reinstatement): queued words can never drain
        // and never need to, so only in-transit traffic gates it.
        if (swap.inRun ? net->leafQuiet(page.binding.pageId)
                       : net->leafTransitQuiet(page.binding.pageId)) {
            startAttempt();
            return;
        }
        if (swap.elapsed > cfg.swapDrainTimeoutCycles) {
            // The leaf never quiesced: abort before any image bits
            // were committed. The old page was never touched.
            swap.result.watchdogFired = true;
            obs::count("sys.swap.watchdog_fired");
            finishSwap(SwapOutcome::RolledBack, run_cycle);
        }
        return;
      case SwapPhase::Streaming:
        if (swap.elapsed >= swap.watchdogDeadline) {
            swap.result.watchdogFired = true;
            obs::count("sys.swap.watchdog_fired");
            attemptFailed();
            return;
        }
        if (swap.stallLeft) {
            --swap.stallLeft;
            return;
        }
        if (swap.backoffLeft) {
            --swap.backoffLeft;
            return;
        }
        if (swap.ackWaitLeft) {
            if (--swap.ackWaitLeft == 0)
                scheduleRetransmit(); // drop confirmed by timeout
            return;
        }
        if (swap.packetCycleLeft) {
            if (--swap.packetCycleLeft == 0)
                transmissionResolved();
            return;
        }
        // Begin the next transmission of the current packet.
        swap.packetCycleLeft = packetCycles();
        return;
      case SwapPhase::Activating:
        if (swap.elapsed >= swap.watchdogDeadline) {
            swap.result.watchdogFired = true;
            obs::count("sys.swap.watchdog_fired");
            attemptFailed();
            return;
        }
        if (swap.hung)
            return; // page never reports up; watchdog will fire
        if (swap.activateLeft && --swap.activateLeft == 0) {
            if (injector.fires(FaultKind::PageHang, faultSite(page),
                               swap.attempt * kFaultAttemptStride)) {
                swap.hung = true;
                obs::instant("sys", "sys.swap.hang")
                    .arg("op", page.fn->name)
                    .arg("attempt",
                         static_cast<int64_t>(swap.attempt));
                return;
            }
            finishSwap(SwapOutcome::Swapped, run_cycle);
        }
        return;
      case SwapPhase::RollingBack:
        if (swap.rollbackLeft) {
            --swap.rollbackLeft;
            return;
        }
        if (swap.attempt + 1 < cfg.swapMaxAttempts) {
            ++swap.attempt;
            startAttempt();
        } else {
            finishSwap(SwapOutcome::Quarantined, run_cycle);
        }
        return;
    }
}

void
SystemSim::installImage(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    PageBinding nb = swap.nb;
    nb.opIdx = page.binding.opIdx;
    nb.pageId = page.binding.pageId; // swaps never relocate a page
    bool fn_changed = swap.newFn != nullptr;
    if (fn_changed) {
        page.ownedFn = std::move(swap.newFn);
        page.fn = page.ownedFn.get();
    }
    bool restart = fn_changed || nb.impl != page.binding.impl;
    if (nb.impl == PageImpl::Hw) {
        if (restart || !page.exec) {
            page.core.reset();
            page.exec = std::make_unique<interp::OperatorExec>(
                *page.fn, page.ports);
            page.restartable = true;
            page.starved = false;
            page.done = false;
            page.budget = 0;
            if (swap.pageIdx < pageDoneMarked.size())
                pageDoneMarked[swap.pageIdx] = false;
        }
        // else: same function, re-timed/re-placed image — the
        // operator's architectural stream state lives in the leaf
        // interface (not reconfigured), so execution resumes where
        // the drain left it; only cyclesPerOp changes.
    } else if (!restart && page.core && nb.imageHash != 0 &&
               nb.imageHash == page.binding.imageHash) {
        // Checkpoint/restore: re-instating the *identical* softcore
        // image (same content hash — the eviction/reinstate path of
        // the tenant scheduler) restores the read-back core state
        // instead of resetting to the entry point, so an evicted
        // tenant resumes mid-batch exactly where its drain left it.
        // Only the clock sync is re-based; the streaming cost was
        // already charged by the swap engine.
        page.coreSyncRun = run_cycle;
        page.coreSyncCycles = page.core->cycles();
    } else {
        page.exec.reset();
        page.core = std::make_unique<rv32::Core>(nb.elf, page.ports);
        page.coreSyncRun = run_cycle;
        page.coreSyncCycles = 0;
        page.restartable = true;
        page.starved = false;
        page.done = false;
        page.budget = 0;
        if (swap.pageIdx < pageDoneMarked.size())
            pageDoneMarked[swap.pageIdx] = false;
    }
    page.binding = nb;
}

void
SystemSim::installFallback(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    page.quarantined = true;
    obs::count("sys.swap.quarantined");
    // Prefer the new image's fallback binary (it implements the
    // edited function); fall back to the old binding's; with neither,
    // pin the old image in place.
    const PageBinding *src = nullptr;
    if (swap.nb.hasFallback)
        src = &swap.nb;
    else if (page.binding.hasFallback)
        src = &page.binding;
    obs::instant("sys", "sys.swap.quarantine")
        .arg("op", page.fn->name)
        .arg("fallback", static_cast<int64_t>(src ? 1 : 0));
    if (!src)
        return; // old image stays; future swaps are rejected
    if (src == &swap.nb && swap.newFn) {
        page.ownedFn = std::move(swap.newFn);
        page.fn = page.ownedFn.get();
    }
    page.exec.reset();
    page.core =
        std::make_unique<rv32::Core>(src->fallbackElf, page.ports);
    page.coreSyncRun = run_cycle;
    page.coreSyncCycles = 0;
    page.binding.impl = PageImpl::Softcore;
    page.binding.elf = src->fallbackElf;
    page.binding.imageBytes = src->fallbackElf.footprintBytes();
    page.binding.imageHash = 0; // fallback image, not the failed one
    page.binding.hasFallback = true;
    page.binding.fallbackElf = src->fallbackElf;
    page.restartable = true;
    page.starved = false;
    page.done = false;
    page.budget = 0;
    if (swap.pageIdx < pageDoneMarked.size())
        pageDoneMarked[swap.pageIdx] = false;
}

void
SystemSim::finishSwap(SwapOutcome outcome, uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    if (outcome == SwapOutcome::Swapped) {
        installImage(run_cycle);
        obs::count("sys.swap.completed");
    } else if (outcome == SwapOutcome::Quarantined) {
        installFallback(run_cycle);
    }
    page.paused = false;
    swap.result.outcome = outcome;
    swap.result.cycles = swap.elapsed;
    obs::record("sys.swap.cycles",
                static_cast<double>(swap.result.cycles));
    obs::instant("sys", "sys.swap.done")
        .arg("op", page.fn->name)
        .arg("outcome", swapOutcomeName(outcome))
        .arg("cycles", static_cast<int64_t>(swap.result.cycles))
        .arg("retransmits",
             static_cast<int64_t>(swap.result.retransmits));
    if (swap.span) {
        swap.span->arg("outcome", swapOutcomeName(outcome))
            .arg("cycles", static_cast<int64_t>(swap.result.cycles))
            .arg("packets", static_cast<int64_t>(swap.result.packets))
            .arg("retransmits",
                 static_cast<int64_t>(swap.result.retransmits))
            .arg("rollbacks",
                 static_cast<int64_t>(swap.result.rollbacks));
        swap.span.reset();
    }
    swapLog.push_back(swap.result);
    swap.newFn.reset();
    swap.phase = SwapPhase::Idle;
}

} // namespace sys
} // namespace pld
