#include "sys/system.h"

#include <algorithm>
#include <array>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace pld {
namespace sys {

using dataflow::FifoReadPort;
using dataflow::FifoWritePort;
using dataflow::WordFifo;
using interp::RunStatus;

namespace {

/** Config-channel cycles per packet: one 32-bit word per cycle over
 * the ICAP-style channel. */
constexpr uint64_t kPacketCycles =
    std::max<uint64_t>(1, kSwapPacketBytes / 4);
// The ack-timeout and activation countdowns must start non-zero.
static_assert(kSwapAckTimeoutCycles > 0 && kSwapActivationCycles > 0);

/** Config packets a partial image of @p image_bytes streams as. */
uint64_t
packetsFor(uint64_t image_bytes)
{
    return std::max<uint64_t>(
        1, (image_bytes + kSwapPacketBytes - 1) / kSwapPacketBytes);
}

/** Watchdog budget per packet of an attempt: generous enough that a
 * fault-free stream — even one that retransmits every packet to the
 * limit — never trips it, so the watchdog only reports real hangs. */
constexpr uint64_t kWatchdogCyclesPerPacket =
    (1 + kPacketCycles + kSwapAckTimeoutCycles +
     (kSwapBackoffBase << std::min(kSwapMaxRetransmits, 10))) *
    (kSwapMaxRetransmits + 1);

} // namespace

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
    for (auto &page : pages) {
        if (page.binding.impl == PageImpl::Hw)
            page.exec = std::make_unique<interp::OperatorExec>(
                *page.fn, page.ports);
        else
            page.core = std::make_unique<rv32::Core>(page.binding.elf,
                                                     page.ports);
    }
}

void
SystemSim::buildNocSystem()
{
    int needed = kDmaLeafBase +
                 static_cast<int>(g.extInputs.size() +
                                  g.extOutputs.size());
    net = std::make_unique<noc::BftNoc>(std::max(32, needed),
                                        kNocPortsPerLeaf, kNocFifoDepth);

    // Operator ports hang off their page's leaf interface.
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const auto &fn = g.ops[oi].fn;
        int leaf = pages[oi].binding.pageId;
        pld_assert(static_cast<int>(fn.ports.size()) <=
                       kNocPortsPerLeaf,
                   "%s has more ports than the leaf interface",
                   fn.name.c_str());
        auto &ports = pages[oi].ports;
        for (size_t pi = 0; pi < fn.ports.size(); ++pi) {
            if (fn.ports[pi].dir == ir::PortDir::In)
                ports.push_back(net->inPort(leaf, int(pi)));
            else
                ports.push_back(net->outPort(leaf, int(pi)));
        }
    }

    // DMA endpoints.
    for (size_t i = 0; i < g.extInputs.size(); ++i) {
        int leaf = kDmaLeafBase + static_cast<int>(i);
        extInPorts.push_back(net->outPort(leaf, 0));
    }
    for (size_t j = 0; j < g.extOutputs.size(); ++j) {
        int leaf =
            kDmaLeafBase + static_cast<int>(g.extInputs.size() + j);
        extOutPorts.push_back(net->inPort(leaf, 0));
    }

    // Linking: the loader sends config packets from the DMA leaf
    // programming every producer's destination register (Sec 4.3).
    int linker_leaf = kDmaLeafBase;
    int link_idx = 0;
    for (const auto &l : g.links) {
        int src_leaf, src_port;
        if (l.src.isExternal()) {
            src_leaf = kDmaLeafBase + l.src.port;
            src_port = 0;
        } else {
            src_leaf = pages[l.src.op].binding.pageId;
            src_port = l.src.port;
        }
        int dst_leaf, dst_port;
        if (l.dst.isExternal()) {
            dst_leaf = kDmaLeafBase +
                       static_cast<int>(g.extInputs.size()) + l.dst.port;
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
            external ? 0 : kDirectFifoDepth));
    }

    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const auto &fn = g.ops[oi].fn;
        auto &ports = pages[oi].ports;
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
    for (auto &page : pages) {
        if (!page.done && !(page.restartable && page.starved))
            continue;
        page.done = false;
        page.budget = 0;
        page.starved = false;
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
    for (size_t page_idx = 0; page_idx < pages.size(); ++page_idx) {
        Page &page = pages[page_idx];
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
                page.done = page.exec->done();
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
        // Done pages are skipped above, so this is the transition.
        if (page.done) {
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
            advance(Stepping::Network, 0);
            ++rs.configCycles;
            pld_assert(rs.configCycles < 1000000,
                       "linking never converged");
        }
        link_span.arg("config_cycles",
                      static_cast<int64_t>(rs.configCycles));
    }

    // One flow arrow per external stream: DMA start at cycle 0,
    // finish (stepDma) when the stream's last word moves. The sim is
    // single-threaded and cycle-deterministic, so cycle args are
    // structural.
    statWordsIn = statWordsOut = 0;
    for (size_t i = 0; i < extInPorts.size(); ++i) {
        if (hostInPos[i] < hostIn[i].size()) {
            obs::flowStart("sys", "sys.dma.in", i + 1)
                .arg("stream", static_cast<int64_t>(i))
                .arg("words",
                     static_cast<int64_t>(hostIn[i].size() -
                                          hostInPos[i]));
        }
    }

    uint64_t cycle = 0;
    for (; cycle < max_cycles; ++cycle) {
        if (!swapActive() && !swapQueue.empty() &&
            swapQueue.front().atCycle <= cycle)
            beginQueuedSwap();
        bool pages_done = advance(Stepping::Live, cycle);

        if (pages_done && !swapActive()) {
            if (!swapQueue.empty()) {
                // Work ran out before the requested start cycle:
                // start the swap now rather than stranding it.
                beginQueuedSwap();
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
    obs::count("sys.dma.words.in", static_cast<int64_t>(statWordsIn));
    obs::count("sys.dma.words.out", static_cast<int64_t>(statWordsOut));
    obs::count("sys.page.stalls",
               static_cast<int64_t>(statStalls));
    return rs;
}

bool
SystemSim::advance(Stepping what, uint64_t cycle)
{
    if (what != Stepping::Network && swapActive())
        stepSwap(cycle);
    bool pages_done = false;
    if (what == Stepping::Live) {
        stepDma(cycle);
        pages_done = stepPages(cycle);
    }
    if (net)
        net->stepCycle();
    return pages_done;
}

void
SystemSim::stepDma(uint64_t cycle)
{
    for (size_t i = 0; i < extInPorts.size(); ++i) {
        for (int w = 0; w < kDmaWordsPerCycle; ++w) {
            if (hostInPos[i] == hostIn[i].size() ||
                !extInPorts[i]->canWrite())
                break;
            extInPorts[i]->write(hostIn[i][hostInPos[i]++]);
            ++statWordsIn;
            // The last word closes the flow this run opened.
            if (hostInPos[i] == hostIn[i].size())
                obs::flowFinish("sys", "sys.dma.in", i + 1)
                    .arg("stream", static_cast<int64_t>(i))
                    .arg("cycle", static_cast<int64_t>(cycle));
        }
    }
    for (size_t j = 0; j < extOutPorts.size(); ++j) {
        while (extOutPorts[j]->canRead()) {
            hostOut[j].push_back(extOutPorts[j]->read());
            ++statWordsOut;
        }
    }
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

const SystemSim::Page &
SystemSim::pageAt(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)];
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
        advance(Stepping::Frozen, 0);
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
    const auto reject = [&](bool retriable, std::string why) {
        SwapRequestResult rr;
        rr.diag.code = CompileCode::SwapRejected;
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

    if (swapQueue.size() >= kSwapQueueDepth)
        return reject(/*retriable=*/true,
                      "pending-swap queue full (" +
                          std::to_string(kSwapQueueDepth) +
                          " entries); retry after a queued swap "
                          "completes");
    int idx = findPage(page_id);
    if (idx < 0)
        return reject(/*retriable=*/false,
                      "no page at leaf " + std::to_string(page_id));
    if (pages[static_cast<size_t>(idx)].quarantined)
        return reject(/*retriable=*/false,
                      "page is quarantined (pinned to its softcore "
                      "fallback); swaps are rejected");
    for (const auto &q : swapQueue) {
        if (q.pageId == page_id)
            return reject(/*retriable=*/true,
                          "a queued swap already targets this page; "
                          "conflicting images cannot be queued");
    }
    if (swapActive() &&
        pages[swap.pageIdx].binding.pageId == page_id)
        return reject(/*retriable=*/true,
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
        advance(Stepping::Frozen, 0);
        ++spent;
        pld_assert(spent < 100000000ull,
                   "checkpoint swap completion never terminated");
    }
    // Then quiesce the network fabric, not the leaf interfaces: with
    // every page frozen, words queued in leaf FIFOs cannot move (and
    // do not need to — that state survives reconfiguration in
    // place), but flits in switch registers must land before the
    // grid can be handed to another tenant.
    while (!net->transitIdle() && spent < kSwapDrainTimeoutCycles) {
        advance(Stepping::Network, 0);
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
    swap.packetsTotal = packetsFor(nb.imageBytes);
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
SystemSim::beginQueuedSwap()
{
    SwapRequest req = std::move(swapQueue.front());
    swapQueue.erase(swapQueue.begin());
    beginSwap(req.pageId, req.nb, std::move(req.newFn), true);
}

void
SystemSim::startAttempt()
{
    Page &page = pages[swap.pageIdx];
    swap.phase = SwapPhase::Streaming;
    swap.cur = {};
    swap.result.attempts = swap.attempt + 1;
    swap.cur.watchdogDeadline =
        swap.elapsed + swap.packetsTotal * kWatchdogCyclesPerPacket +
        kSwapDmaStallCycles + kSwapActivationCycles + 256;
    obs::instant("sys", "sys.swap.attempt")
        .arg("op", page.fn->name)
        .arg("attempt", static_cast<int64_t>(swap.attempt));
    if (injector.fires(FaultKind::DmaStall, faultSite(page),
                       swap.attempt * kFaultAttemptStride)) {
        swap.cur.stallLeft = kSwapDmaStallCycles;
        ++swap.result.dmaStalls;
        obs::count("sys.swap.dma_stalls");
    }
}

void
SystemSim::scheduleRetransmit()
{
    ++swap.cur.txCur;
    if (swap.cur.txCur > kSwapMaxRetransmits) {
        attemptFailed();
        return;
    }
    ++swap.result.retransmits;
    obs::count("sys.swap.retransmits");
    swap.cur.backoffLeft = kSwapBackoffBase << std::min(swap.cur.txCur - 1, 10);
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
                std::min(swap.cur.txCur, kFaultAttemptStride - 1);
    uint64_t salt = swap.cur.packetIdx;

    // Frame the packet: payload derived from the image content hash,
    // CRC-32 over the payload (the real check, not a modelled one).
    std::array<uint8_t, kSwapPacketBytes> payload{};
    for (size_t i = 0; i < payload.size(); i += 8) {
        Hasher h;
        h.u64(swap.nb.imageHash);
        h.u64(swap.cur.packetIdx);
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
        swap.cur.ackWaitLeft = kSwapAckTimeoutCycles;
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
    swap.cur.txCur = 0;
    ++swap.cur.packetIdx;
    if (swap.cur.packetIdx == swap.packetsTotal) {
        swap.phase = SwapPhase::Activating;
        swap.cur.activateLeft = kSwapActivationCycles;
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
    swap.phase = SwapPhase::RollingBack;
    swap.rollbackLeft =
        packetsFor(page.binding.imageBytes) * (kPacketCycles + 1);
}

void
SystemSim::stepSwap(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    ++swap.elapsed;
    const bool draining = swap.phase == SwapPhase::Draining;
    // A live (in-run) swap waits for the page's outbound traffic to
    // drain — the page keeps executing and empties its own queues. A
    // synchronous swap runs against a frozen fabric (checkpoint
    // reinstatement): queued words can never drain and never need
    // to, so only in-transit traffic gates it.
    if (draining && (swap.inRun
                         ? net->leafQuiet(page.binding.pageId)
                         : net->leafTransitQuiet(page.binding.pageId))) {
        startAttempt();
        return;
    }
    // The watchdog: a leaf that never quiesced aborts the swap before
    // any image bits were committed (the old page was never
    // touched); a stream or activation past its budget aborts the
    // attempt.
    const bool attempting = swap.phase == SwapPhase::Streaming ||
                            swap.phase == SwapPhase::Activating;
    if (draining ? swap.elapsed > kSwapDrainTimeoutCycles
                 : attempting && swap.elapsed >= swap.cur.watchdogDeadline) {
        swap.result.watchdogFired = true;
        obs::count("sys.swap.watchdog_fired");
        if (draining)
            finishSwap(SwapOutcome::RolledBack, run_cycle);
        else
            attemptFailed();
        return;
    }
    switch (swap.phase) {
      case SwapPhase::Idle:
      case SwapPhase::Draining:
        return;
      case SwapPhase::Streaming:
        if (swap.cur.stallLeft) {
            --swap.cur.stallLeft;
            return;
        }
        if (swap.cur.backoffLeft) {
            --swap.cur.backoffLeft;
            return;
        }
        if (swap.cur.ackWaitLeft) {
            if (--swap.cur.ackWaitLeft == 0)
                scheduleRetransmit(); // drop confirmed by timeout
            return;
        }
        if (swap.cur.packetCycleLeft) {
            if (--swap.cur.packetCycleLeft == 0)
                transmissionResolved();
            return;
        }
        // Begin the next transmission of the current packet.
        swap.cur.packetCycleLeft = kPacketCycles;
        return;
      case SwapPhase::Activating:
        if (swap.cur.hung)
            return; // page never reports up; watchdog will fire
        if (swap.cur.activateLeft && --swap.cur.activateLeft == 0) {
            if (injector.fires(FaultKind::PageHang, faultSite(page),
                               swap.attempt * kFaultAttemptStride)) {
                swap.cur.hung = true;
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
        if (swap.attempt + 1 < kSwapMaxAttempts) {
            ++swap.attempt;
            startAttempt();
        } else {
            finishSwap(SwapOutcome::Quarantined, run_cycle);
        }
        return;
    }
}

void
SystemSim::restartPage(Page &page, const rv32::PldElf *elf,
                       uint64_t run_cycle)
{
    if (elf) {
        page.exec.reset();
        page.core = std::make_unique<rv32::Core>(*elf, page.ports);
        page.coreSyncRun = run_cycle;
        page.coreSyncCycles = 0;
    } else {
        page.core.reset();
        page.exec =
            std::make_unique<interp::OperatorExec>(*page.fn, page.ports);
    }
    page.restartable = true;
    page.starved = false;
    page.done = false;
    page.budget = 0;
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
        if (restart || !page.exec)
            restartPage(page, nullptr, run_cycle);
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
        restartPage(page, &nb.elf, run_cycle);
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
    restartPage(page, &src->fallbackElf, run_cycle);
    page.binding.impl = PageImpl::Softcore;
    page.binding.elf = src->fallbackElf;
    page.binding.imageBytes = src->fallbackElf.footprintBytes();
    page.binding.imageHash = 0; // fallback image, not the failed one
    page.binding.hasFallback = true;
    page.binding.fallbackElf = src->fallbackElf;
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
    swap.span->arg("outcome", swapOutcomeName(outcome))
        .arg("cycles", static_cast<int64_t>(swap.result.cycles))
        .arg("packets", static_cast<int64_t>(swap.result.packets))
        .arg("retransmits",
             static_cast<int64_t>(swap.result.retransmits))
        .arg("rollbacks", static_cast<int64_t>(swap.result.rollbacks));
    swap.span.reset();
    swapLog.push_back(swap.result);
    swap.newFn.reset();
    swap.phase = SwapPhase::Idle;
}

} // namespace sys
} // namespace pld
