/**
 * @file
 * The compile service: the library behind the `pldd` daemon.
 *
 * CompileService turns PldCompiler into a long-lived, multi-client
 * compile server. Every request — compile or swap — flows through the
 * same pipe:
 *
 *   key → coalesce → on-disk store → admission → backend → publish
 *
 *  - *key*: a content hash of (graph text, level, seed, effort,
 *    softcore tier, fault spec). parallelJobs is deliberately
 *    excluded — the determinism contract makes results bit-identical
 *    at any thread count, so requests differing only in job count
 *    coalesce and share artifacts.
 *  - *coalesce*: N clients submitting the identical edit trigger one
 *    backend compile (Coalescer); joiners bypass admission entirely —
 *    they add no load.
 *  - *store*: the persistent ArtifactStore serves warm-restart hits
 *    before the backend is consulted.
 *  - *admission*: at most maxExecuting requests compile concurrently;
 *    up to maxQueued wait; beyond that the request is *rejected* with
 *    a structured AdmissionRejected diagnostic — a bounded queue,
 *    never an unbounded pile-up or a hang.
 *  - *backend*: a pool of PldCompilers keyed by the constructor-time
 *    options (seed, tier, fault spec, jobs, effort); results are
 *    encoded to the canonical BuildArtifact/SwapBlob form, stored,
 *    and published to coalesced waiters.
 *
 * Accounting invariant (asserted by the stress test): at quiescence
 *   submitted == rejected + coalesced + storeHits + storeMisses
 * — every request is classified exactly once.
 */

#ifndef PLD_SVC_SERVICE_H
#define PLD_SVC_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/coalesce.h"
#include "fabric/device.h"
#include "pld/compiler.h"
#include "svc/store.h"
#include "svc/wire.h"

namespace pld {
namespace svc {

struct ServiceConfig
{
    /** Artifact store directory (required). */
    std::string storeDir;
    uint64_t storeBudgetBytes = 256ull << 20;
    /** Concurrent backend compiles. */
    int maxExecuting = 4;
    /** Requests allowed to wait for an executing slot; one more is
     * rejected with AdmissionRejected. */
    int maxQueued = 8;
    /** Filesystem the artifact store runs on; null = the real one.
     * pldd wraps this in a FaultVfs when PLD_FAULT carries io_*
     * kinds, so chaos runs inject faults without recompiling. */
    std::shared_ptr<Vfs> vfs;
};

/** Request-classification counters (see the invariant above). */
struct ServiceStats
{
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> coalesced{0};
    std::atomic<uint64_t> storeHits{0};
    /** Requests that reached the backend (success or failure). */
    std::atomic<uint64_t> storeMisses{0};
    /** Backend executions that produced a Failed response (subset of
     * storeMisses; fault-injected compiles land here). */
    std::atomic<uint64_t> failed{0};
    /** Waiters that re-claimed after a claimant died mid-compile. */
    std::atomic<uint64_t> reclaimed{0};
};

/**
 * Bounded execute/wait admission control. acquire() returns false —
 * immediately, it never blocks for a rejection — when maxQueued
 * requests are already waiting.
 */
class Admission
{
  public:
    Admission(int max_executing, int max_queued)
        : maxExecuting(max_executing), maxQueued(max_queued)
    {
    }

    bool acquire();
    void release();

    int executing() const;
    int queued() const;

  private:
    const int maxExecuting;
    const int maxQueued;
    mutable std::mutex mtx;
    std::condition_variable cv;
    int executing_ = 0;
    int queued_ = 0;
};

/** The shared outcome one claimant publishes to all its joiners. */
struct ServiceResult
{
    RespStatus status = RespStatus::Ok;
    CompileStatus diags;
    std::vector<uint8_t> blob;
};

class CompileService
{
  public:
    CompileService(const fabric::Device &dev, ServiceConfig cfg);

    /** Serve one compile request (any thread). */
    CompileResponse compile(const CompileRequest &req);
    /** Serve one swap request against a previously served build. */
    CompileResponse swap(const SwapRequest &req);

    /** Human-readable "name value" stats lines (pldc stats). */
    std::string statsText() const;

    const ServiceStats &stats() const { return stats_; }
    ArtifactStore &store() { return store_; }

    /** The content key a request coalesces and stores under. */
    static uint64_t requestKey(const CompileRequest &req);
    static uint64_t swapKey(const SwapRequest &req);

    /** Is @p id a build this service can swap against? */
    bool hasBuild(uint64_t id) const;

    /**
     * Test hook, called in the requesting thread after admission is
     * granted and before the backend runs. Lets tests hold a request
     * "executing" to fill the admission queue deterministically.
     */
    void setExecuteHook(std::function<void()> hook);

  private:
    /** The coalesce → store → admission → backend pipeline shared by
     * compile() and swap(); @p execute runs the backend. */
    CompileResponse serve(uint64_t key, const RequestOptions &opts,
                          const std::function<ServiceResult()> &execute);

    flow::PldCompiler &compilerFor(const RequestOptions &opts);
    void registerBuild(uint64_t key, const std::vector<uint8_t> &blob);
    std::shared_ptr<const flow::AppBuild> findBuild(uint64_t id) const;

    const fabric::Device &dev_;
    ServiceConfig cfg_;
    ArtifactStore store_;
    Coalescer<ServiceResult> coalescer_;
    Admission admission_;
    ServiceStats stats_;

    /** Backend compilers by constructor-option hash. */
    std::mutex compilersMtx_;
    std::map<uint64_t, std::unique_ptr<flow::PldCompiler>> compilers_;

    /** Served builds by request key — swap bases. Skeletons decoded
     * from the canonical blob, so store-served and freshly compiled
     * builds swap identically. */
    mutable std::mutex buildsMtx_;
    std::map<uint64_t, std::shared_ptr<const flow::AppBuild>> builds_;

    /**
     * Per-request tracing quiesces the daemon: normal requests hold
     * this shared, a traced request holds it unique while it installs
     * a ScopedTracer (Tracer::install demands quiescence), runs, and
     * writes the Chrome trace. Coalescer waits happen *outside* the
     * lock so a traced claimant can always drain its joiners.
     */
    std::shared_mutex traceMtx_;

    std::mutex hookMtx_;
    std::function<void()> executeHook_;
};

} // namespace svc
} // namespace pld

#endif // PLD_SVC_SERVICE_H
