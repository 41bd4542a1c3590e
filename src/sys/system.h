/**
 * @file
 * Cycle-level system simulator: the "board" the linked design runs on.
 *
 * Models the runtime half of the paper: a set of physical pages (each
 * implementing one operator either as HLS hardware or as a softcore
 * running its -O0 binary), the linking network connecting them, and a
 * DMA engine streaming host buffers in and out (Fig 3). The same
 * simulator also runs monolithic (-O3 / Vitis) designs by replacing
 * the NoC with direct FIFO links.
 *
 * Timing:
 *  - HW pages charge cycles per interpreter compute-op using the HLS
 *    schedule's cyclesPerOp (so an II=1 loop streams ~1 word/cycle).
 *  - Softcore pages execute their RV32 binary on the ISS; the ISS's
 *    PicoRV32 cycle counter is synchronized to the global clock.
 *  - The NoC moves one flit per link per cycle with deflection.
 * Wall-clock seconds per input are cycles / Fmax, reported by the
 * benchmark harness (Table 3).
 *
 * One clock: every simulated cycle — linking, execution, a
 * synchronous swap, a checkpoint drain — goes through one private
 * primitive, advance(), which steps the swap engine (when one is
 * active), then DMA and pages (live execution only), then the NoC.
 * Callers differ only in what they step and when they stop.
 *
 * Live reconfiguration (hot swap): swapPage() / requestSwap() replace
 * one page's image while the rest of the system keeps executing — the
 * paper's edit→recompile→hot-swap loop. The swap engine drains the
 * target's NoC traffic, streams the new image as CRC-framed config
 * packets over a dedicated ICAP-style config channel (sized from the
 * image footprint, mirroring partial-bitstream size), and activates.
 * It is fault tolerant end to end: per-packet CRC with bounded
 * retransmit and exponential backoff, a reconfiguration watchdog, a
 * rollback to the previous image on an aborted attempt, and a
 * quarantine policy that pins a page to its softcore fallback after
 * repeated failures (the runtime continuation of the compile-time
 * retry ladder). All fault decisions come from the deterministic
 * FaultInjector, so every scenario is bit-reproducible under any
 * PLD_THREADS.
 */

#ifndef PLD_SYS_SYSTEM_H
#define PLD_SYS_SYSTEM_H

#include <memory>
#include <vector>

#include "common/fault.h"
#include "interp/exec.h"
#include "ir/graph.h"
#include "noc/bft.h"
#include "obs/trace.h"
#include "rv32/iss.h"

namespace pld {
namespace sys {

/** How one operator is realized on its page. */
enum class PageImpl { Hw, Softcore };

/** Binding of a graph operator to a physical page. */
struct PageBinding
{
    int opIdx = -1;
    int pageId = -1; ///< physical page == NoC leaf id
    PageImpl impl = PageImpl::Hw;
    /** HW: cycle charge per interpreter compute op. */
    double cyclesPerOp = 1.0;
    /** Softcore: the packed -O0 binary. */
    rv32::PldElf elf;
    /**
     * Partial-image size in bytes (drives how many config packets a
     * hot swap streams). 0 = unknown; the swap engine then assumes
     * one packet. The compiler fills this from the page's resource
     * footprint (HW) or the binary footprint (softcore).
     */
    uint64_t imageBytes = 0;
    /** Content hash of the image (seeds the CRC-framed packets). */
    uint64_t imageHash = 0;
    /** Quarantine fallback: pin the operator to this -O0 softcore
     * binary after repeated swap failures. */
    bool hasFallback = false;
    rv32::PldElf fallbackElf;
};

// Board parameters: every build and every test simulates the same
// fabric, so these are constants, not SystemConfig settings.
constexpr int kNocPortsPerLeaf = 6;     ///< leaf-interface stream ports
constexpr size_t kNocFifoDepth = 16;    ///< per leaf-interface FIFO
constexpr size_t kDirectFifoDepth = 64; ///< direct links (-O3 / Vitis)
constexpr int kDmaWordsPerCycle = 1;    ///< per external stream
constexpr int kDmaLeafBase = 24;        ///< first DMA endpoint leaf

// Swap engine (DESIGN.md §11).
constexpr size_t kSwapPacketBytes = 128; ///< payload per config packet
constexpr int kSwapMaxRetransmits = 4;   ///< per packet, per attempt
constexpr int kSwapMaxAttempts = 2;      ///< before quarantine
constexpr uint64_t kSwapAckTimeoutCycles = 16; ///< drop detection
constexpr uint64_t kSwapBackoffBase = 2; ///< doubles per retransmit
/** Leaf-quiesce budget of a swap drain; also bounds the fabric part
 * of a checkpoint drain. */
constexpr uint64_t kSwapDrainTimeoutCycles = 100000;
constexpr uint64_t kSwapDmaStallCycles = 64;  ///< dma_stall freeze
constexpr uint64_t kSwapActivationCycles = 8; ///< last packet → up
/** Pending requestSwap() bound; further requests are rejected. */
constexpr size_t kSwapQueueDepth = 8;

struct SystemConfig
{
    /** Overlay (true, -O1/-O0) vs direct FIFO links (-O3/Vitis). */
    bool useNoc = true;
    /**
     * Runtime fault plan (config_drop / config_corrupt / page_hang /
     * dma_stall). Empty = inherit PLD_FAULT from the environment.
     */
    FaultPlan faults;
    /**
     * Fault-coordinate scope: when non-empty, every fault query this
     * sim makes uses the site name "<faultScope>/<op>" instead of the
     * bare operator name. The multi-tenant scheduler sets it to the
     * tenant name so a PLD_FAULT spec scoped to "t1/" targets one
     * tenant's pages without leaking into any other tenant (see
     * common/fault.h).
     */
    std::string faultScope;
};

/** Per-run result summary. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t configCycles = 0; ///< linking (config packets) phase
    bool completed = false;
    noc::NocStats noc;
};

/** Terminal state of one swapPage()/requestSwap(). */
enum class SwapOutcome {
    /** New image streamed, verified, and activated. */
    Swapped,
    /** Aborted before any image bits were committed (drain never
     * quiesced); the old image was never touched. */
    RolledBack,
    /** All attempts failed; the page is pinned to its fallback
     * softcore (or the old image when no fallback exists) and
     * further swaps are rejected. */
    Quarantined,
    /** Target page is quarantined (or unknown); nothing happened. */
    Rejected,
};

const char *swapOutcomeName(SwapOutcome o);

/**
 * Outcome of *queueing* a requestSwap() — distinct from SwapResult,
 * which describes an executed swap. A rejected request never enters
 * the queue and never appears in swapHistory(); the diagnostic says
 * why (queue full, duplicate page target, unknown or quarantined
 * page).
 */
struct SwapRequestResult
{
    bool accepted = false;
    Diagnostic diag;
};

/** What one swap did and what it cost. */
struct SwapResult
{
    SwapOutcome outcome = SwapOutcome::Rejected;
    /** Total swap duration in sim cycles (drain → terminal). */
    uint64_t cycles = 0;
    /** New-image packets accepted by the page's CRC check. */
    uint64_t packets = 0;
    uint64_t retransmits = 0;
    uint64_t crcErrors = 0;
    uint64_t drops = 0;
    uint64_t dmaStalls = 0;
    int attempts = 0;
    int rollbacks = 0;
    bool watchdogFired = false;
};

/**
 * One loaded application ready to execute.
 */
class SystemSim
{
  public:
    SystemSim(const ir::Graph &g,
              const std::vector<PageBinding> &bindings,
              const SystemConfig &cfg);

    /** Queue host input words on external stream @p ext_idx. */
    void loadInput(int ext_idx, const std::vector<uint32_t> &words);

    /**
     * Link (config packets through the network) and run to
     * completion or @p max_cycles. Pages that completed a previous
     * run are re-armed (reset to their entry state) when new host
     * input is queued, so one SystemSim can process many batches.
     */
    RunStats run(uint64_t max_cycles = 500000000ull)
    {
        return runInternal(max_cycles, /*slice=*/false);
    }

    /**
     * Run at most @p cycles further cycles as one scheduler time
     * slice. Identical to run() except that exhausting the budget is
     * a yield, not a failure: no sys.run.timeout telemetry is
     * emitted, because the tenant scheduler preempting a tenant
     * mid-batch is the normal case, not a stall.
     */
    RunStats runSlice(uint64_t cycles)
    {
        return runInternal(cycles, /*slice=*/true);
    }

    /** Words the DMA engine collected from external output. */
    std::vector<uint32_t> takeOutput(int ext_idx);

    /**
     * Hot-swap the page at NoC leaf @p page_id to @p nb, synchronously
     * (between runs): drain, stream CRC-framed packets, activate —
     * with retransmit / watchdog / rollback / quarantine handling.
     * @p new_fn, when non-null, is the edited operator function the
     * new image implements (the sim keeps its own copy); null means
     * the function is unchanged (a re-timed/re-placed image) and the
     * operator's execution state survives the swap — architectural
     * stream state lives in the leaf interface, which DFX does not
     * reconfigure. A function-changing swap restarts the operator.
     */
    SwapResult swapPage(int page_id, const PageBinding &nb,
                        const ir::OperatorFn *new_fn = nullptr);

    /**
     * Queue a hot swap to start once run() reaches @p at_cycle
     * (run-local clock): the rest of the system keeps executing
     * while the swap engine drains and streams. Results are appended
     * to swapHistory() in start order. The request is validated at
     * queueing time: a full queue (kSwapQueueDepth), a second request
     * targeting an already-queued or in-flight page, or an unknown /
     * quarantined target page is rejected with a structured
     * diagnostic instead of silently queueing a conflicting swap.
     */
    SwapRequestResult requestSwap(int page_id, const PageBinding &nb,
                                  uint64_t at_cycle,
                                  const ir::OperatorFn *new_fn =
                                      nullptr);

    const std::vector<SwapResult> &swapHistory() const
    {
        return swapLog;
    }

    /**
     * Checkpoint drain: step only the network (pages frozen, no DMA)
     * until every flit has landed in a leaf-interface FIFO and no
     * config packet is pending, so the fabric can be handed to
     * another tenant. Words parked in leaf FIFOs survive — the DFX
     * model: partial reconfiguration does not touch the leaf
     * interface, so an evicted tenant's stream state is preserved
     * in place and re-instating the same images resumes execution
     * exactly where the drain left it. An active swap is first run
     * to completion (mid-reconfiguration state cannot be
     * checkpointed; the swap watchdog bounds it). Returns cycles
     * spent (the fabric-quiesce part is bounded by
     * kSwapDrainTimeoutCycles).
     */
    uint64_t drainForCheckpoint();

    /** Pending requestSwap() entries not yet started. */
    size_t pendingSwapRequests() const { return swapQueue.size(); }

    /** True when the page at leaf @p page_id is quarantined. */
    bool pageQuarantined(int page_id) const
    {
        return pageAt(page_id).quarantined;
    }

    /** Current implementation of the page at leaf @p page_id. */
    PageImpl pageImpl(int page_id) const
    {
        return pageAt(page_id).binding.impl;
    }

    /**
     * Current binding of the page at leaf @p page_id — reflects any
     * completed swaps (including a quarantine rewrite). The tenant
     * scheduler re-streams exactly this image at reinstatement.
     */
    const PageBinding &pageBinding(int page_id) const
    {
        return pageAt(page_id).binding;
    }

  private:
    struct Page
    {
        PageBinding binding;
        /** Function currently on the page (graph's or ownedFn). */
        const ir::OperatorFn *fn = nullptr;
        /** Owns a swapped-in edited function. */
        std::unique_ptr<ir::OperatorFn> ownedFn;
        /** Leaf-interface ports, indexed like fn->ports. */
        std::vector<dataflow::StreamPort *> ports;
        std::unique_ptr<interp::OperatorExec> exec; // HW
        std::unique_ptr<rv32::Core> core;           // softcore
        double budget = 0;
        bool done = false;
        /** Frozen by the swap engine (drain → terminal). */
        bool paused = false;
        /** Repeated swap failures pinned this page; swaps Rejected. */
        bool quarantined = false;
        /**
         * Installed fresh mid-stream by a function-changing swap:
         * the page counts as quiescent (for completion) while it is
         * blocked on read with no input available, instead of
         * requiring an explicit done state.
         */
        bool restartable = false;
        /** Set with restartable when the page last blocked starved. */
        bool starved = false;
        /**
         * Softcore clock sync point: the core is stepped while
         * (cycles() - coreSyncCycles) < (run cycle - coreSyncRun).
         * Re-based at every run() start and whenever a core is
         * installed mid-run, so neither a fresh core (cycles()==0 at
         * a large run clock) nor a carried-over core (large cycles()
         * at run clock 0) bursts or freezes.
         */
        uint64_t coreSyncRun = 0;
        uint64_t coreSyncCycles = 0;
    };

    /** Swap engine phases (see DESIGN.md §11). */
    enum class SwapPhase {
        Idle,
        Draining,
        Streaming,
        Activating,
        RollingBack,
    };

    /** In-flight swap state machine. */
    struct SwapState
    {
        SwapPhase phase = SwapPhase::Idle;
        size_t pageIdx = 0;
        PageBinding nb;
        std::unique_ptr<ir::OperatorFn> newFn;
        bool inRun = false;        ///< driven by run() (vs synchronous)
        uint64_t elapsed = 0;      ///< cycles since the swap started
        int attempt = 0;
        uint64_t packetsTotal = 0;
        /** State of the current attempt; startAttempt() resets it. */
        struct Attempt
        {
            uint64_t packetIdx = 0;
            int txCur = 0;            ///< transmissions of this packet
            uint64_t packetCycleLeft = 0;
            uint64_t ackWaitLeft = 0; ///< drop detection countdown
            uint64_t backoffLeft = 0;
            uint64_t stallLeft = 0;   ///< dma_stall freeze countdown
            bool hung = false;        ///< page_hang fired; await watchdog
            uint64_t activateLeft = 0;
            uint64_t watchdogDeadline = 0; ///< in elapsed-cycles space
        } cur;
        uint64_t rollbackLeft = 0;
        SwapResult result;
        std::unique_ptr<obs::Span> span;
    };

    /** Queued requestSwap() entry. */
    struct SwapRequest
    {
        int pageId = 0;
        PageBinding nb;
        std::unique_ptr<ir::OperatorFn> newFn;
        uint64_t atCycle = 0;
    };

    /** What one advance() cycle steps besides the NoC. */
    enum class Stepping {
        Network, ///< nothing else: linking, fabric quiesce
        Frozen,  ///< the swap engine; pages and DMA frozen
        Live,    ///< the swap engine, DMA and pages (run())
    };

    void buildNocSystem();
    void buildDirectSystem();
    RunStats runInternal(uint64_t max_cycles, bool slice);
    /**
     * Advance the fabric one clock cycle at run-local @p cycle — the
     * only place a cycle is stepped. Returns true (Live only) when
     * every page is done or quiescent.
     */
    bool advance(Stepping what, uint64_t cycle);
    void stepDma(uint64_t cycle);
    bool stepPages(uint64_t cycle);
    bool anyInputReadable(const Page &page) const;
    void rearmPages();
    /** Install a fresh execution context on @p page — a softcore
     * running @p elf, or (null) an HW interpreter of page.fn — and
     * mark it restartable from its entry state. */
    void restartPage(Page &page, const rv32::PldElf *elf,
                     uint64_t run_cycle);
    /** Fault-injection site name for @p page: the operator name,
     * prefixed with cfg.faultScope (tenant) when one is set. */
    std::string faultSite(const Page &page) const;

    // Swap engine.
    /** Index of the page at leaf @p page_id, or -1. */
    int findPage(int page_id) const;
    /** The page at leaf @p page_id; asserts that it exists. */
    const Page &pageAt(int page_id) const;
    void beginSwap(int page_id, const PageBinding &nb,
                   std::unique_ptr<ir::OperatorFn> new_fn, bool in_run);
    void beginQueuedSwap();
    void stepSwap(uint64_t run_cycle);
    void startAttempt();
    void transmissionResolved();
    void scheduleRetransmit();
    void attemptFailed();
    void finishSwap(SwapOutcome outcome, uint64_t run_cycle);
    void installImage(uint64_t run_cycle);
    void installFallback(uint64_t run_cycle);
    bool swapActive() const
    {
        return swap.phase != SwapPhase::Idle;
    }

    /** Telemetry accumulated across the run (one counter add at the
     * end instead of per-cycle registry traffic). */
    uint64_t statStalls = 0;
    uint64_t statWordsIn = 0;
    uint64_t statWordsOut = 0;

    const ir::Graph &g;
    SystemConfig cfg;
    FaultInjector injector;
    std::vector<Page> pages;
    std::unique_ptr<noc::BftNoc> net;

    SwapState swap;
    std::vector<SwapRequest> swapQueue;
    std::vector<SwapResult> swapLog;

    // Direct-link mode storage.
    std::vector<std::unique_ptr<dataflow::WordFifo>> directFifos;
    std::vector<std::unique_ptr<dataflow::StreamPort>> portStorage;

    // DMA buffers.
    std::vector<std::vector<uint32_t>> hostIn;   // per ext input
    std::vector<size_t> hostInPos;
    std::vector<std::vector<uint32_t>> hostOut;  // per ext output
    std::vector<dataflow::StreamPort *> extInPorts;
    std::vector<dataflow::StreamPort *> extOutPorts;
};

} // namespace sys
} // namespace pld

#endif // PLD_SYS_SYSTEM_H
