/**
 * @file
 * The persistent, content-addressed artifact store behind the
 * compile service.
 *
 * The compiler's in-memory artifact cache dies with the process; a
 * daemon that serves millions of incremental edits needs artifacts
 * that survive restarts. The ArtifactStore keeps one file per entry
 * under a directory:
 *
 *   <dir>/<16-hex-key>.art :
 *     magic "PLDS" | version | key | payload size | FNV-64 checksum
 *     | payload
 *
 * plus a tiny recency index (<dir>/lru.txt) persisted on every
 * mutation, so least-recently-used eviction order survives restarts
 * too. Properties the tests pin down:
 *
 *  - content addressing: get(k) returns exactly what put(k) stored;
 *  - checksums: a bit-flipped entry is detected on get, evicted, and
 *    reported — the caller recompiles exactly once and the next get
 *    hits again (never a corrupt artifact served);
 *  - LRU eviction by byte budget: put evicts least-recently-*used*
 *    entries (gets refresh recency) until the new entry fits; an
 *    entry larger than the whole budget is not stored at all;
 *  - cross-run reuse: a second ArtifactStore on the same directory
 *    serves hits for everything a first instance stored;
 *  - thread safety: concurrent get/put from any number of threads
 *    (one internal mutex; payload I/O is small and compile-bound).
 *
 * Crash safety (PR 10): all I/O goes through a Vfs (common/io.h),
 * so faults and crash points are injectable. put() is durable —
 * entry tmp is written and fsynced, renamed, and the directory
 * fsynced before the recency index is touched — and *reports*
 * failure instead of logging and claiming success. Opening a store
 * runs a crash-recovery scan: half-written '*.tmp' files are
 * quarantined into <dir>/quarantine/, a missing or damaged lru.txt
 * is tolerated line-by-line, and entries the index does not cover
 * get their recency rebuilt from file mtimes (oldest mtime = least
 * recent). An ENOSPC put flips the store into a degraded mode flag:
 * the daemon keeps serving from memory and already-cached entries
 * rather than failing requests; a later successful put clears it.
 *
 * One daemon per store directory: the store does not lock against
 * other *processes* (documented in DESIGN.md §14).
 */

#ifndef PLD_SVC_STORE_H
#define PLD_SVC_STORE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/io.h"

namespace pld {
namespace svc {

/** Store effectiveness counters (atomic; see flow::CacheStats). */
struct StoreStats
{
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> puts{0};
    /** Checksum-mismatch evictions (detected on get). */
    std::atomic<uint64_t> corrupt{0};
    /** Entries evicted to make room under the byte budget. */
    std::atomic<uint64_t> evictions{0};
    /** Payloads larger than the whole budget, never stored. */
    std::atomic<uint64_t> oversize{0};
    /** Failed writes/renames/reads (short write, ENOSPC, EIO) —
     * each one also makes the affected put() return false. */
    std::atomic<uint64_t> ioErrors{0};
    /** Half-written '*.tmp' files moved aside by the recovery
     * scan when the store was opened. */
    std::atomic<uint64_t> quarantined{0};
    /** Entries whose recency had to be rebuilt from file mtimes
     * (missing/damaged lru.txt line). */
    std::atomic<uint64_t> recencyRebuilt{0};
};

class ArtifactStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir with an LRU byte
     * budget of @p budget_bytes over entry payloads, doing all I/O
     * through @p vfs (the shared PosixVfs when null). Runs the
     * crash-recovery scan described above.
     */
    ArtifactStore(std::string dir, uint64_t budget_bytes,
                  std::shared_ptr<Vfs> vfs = nullptr);
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * Fetch the payload stored under @p key, refreshing its recency.
     * Returns nullopt on a miss — including when the entry exists
     * but fails its checksum or cannot be read, in which case it is
     * deleted and counted so the caller's recompile-and-put makes
     * the next get hit again.
     */
    std::optional<std::vector<uint8_t>> get(uint64_t key);

    /**
     * Store @p payload under @p key (overwriting any previous
     * entry), evicting least-recently-used entries until the budget
     * holds. Durable: the entry is fsynced and renamed into place
     * (a crash mid-put leaves the previous entry or a quarantinable
     * tmp, never a torn entry) before the index is updated.
     * Returns false — and counts svc.store.io_errors — when the
     * payload was NOT durably stored (oversize, short write,
     * ENOSPC, rename failure); the caller still holds the artifact
     * in memory and must not assume a later get will hit.
     */
    bool put(uint64_t key, const std::vector<uint8_t> &payload);

    /** Entry present without touching recency or stats (tests). */
    bool contains(uint64_t key) const;

    /** Total payload bytes currently stored. */
    uint64_t bytesStored() const;
    size_t entryCount() const;

    /** Keys ordered least- to most-recently used (tests). */
    std::vector<uint64_t> keysByRecency() const;

    const StoreStats &stats() const { return stats_; }
    const std::string &dir() const { return dir_; }
    uint64_t budgetBytes() const { return budget_; }

    /** True after a put failed with ENOSPC, until one succeeds:
     * the store is read-only-in-practice but still serving. */
    bool degraded() const { return degraded_.load(); }

    /** Path of @p key's entry file (tests corrupt entries with it). */
    std::string entryPath(uint64_t key) const;

  private:
    struct Entry
    {
        uint64_t size = 0; ///< payload bytes
        uint64_t seq = 0;  ///< recency (higher = more recent)
    };

    void loadIndexLocked();
    void persistIndexLocked();
    void evictForLocked(uint64_t incoming_bytes);
    void noteIoError(const char *what, const std::string &path,
                     const IoStatus &st);

    std::string dir_;
    uint64_t budget_;
    std::shared_ptr<Vfs> vfs_;
    mutable std::mutex mtx_;
    std::map<uint64_t, Entry> entries_;
    uint64_t bytes_ = 0;
    uint64_t seqCounter_ = 0;
    std::atomic<bool> degraded_{false};
    StoreStats stats_;
};

} // namespace svc
} // namespace pld

#endif // PLD_SVC_STORE_H
