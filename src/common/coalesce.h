/**
 * @file
 * In-flight deduplication: the one claim / wait / publish / fail
 * protocol shared by the compiler's artifact cache
 * (flow::PldCompiler, keyed by operator content) and the compile
 * daemon's request coalescing (svc::CompileService, keyed by whole
 * requests across clients).
 *
 * N callers asking for the same key while it is in flight must
 * trigger exactly one compile; the other N-1 wait and share the
 * result. If the claimant cannot produce a result (an exception
 * escaped between claim and publish — including a daemon handler
 * dying with its client), fail() wakes exactly one waiter, which
 * *re-claims* the key and compiles it itself. Waiters therefore
 * never hang on a dead claimant, and a result is compiled at most
 * once per failure generation.
 */

#ifndef PLD_COMMON_COALESCE_H
#define PLD_COMMON_COALESCE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

namespace pld {

template <typename Result> class Coalescer
{
  public:
    enum class Role : uint8_t
    {
        Claimant, ///< first in: compile, then publish() or fail()
        Joined,   ///< identical request in flight: wait()
    };

    struct WaitOutcome
    {
        /** True: the claimant failed and *this* waiter re-claimed
         * the request — it must now compile and publish()/fail(). */
        bool reclaimed = false;
        std::shared_ptr<const Result> result;
    };

    /** Claim @p key or join its in-flight compile. */
    Role
    enter(uint64_t key)
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = inflight.find(key);
        if (it == inflight.end()) {
            inflight.emplace(key, std::make_shared<Entry>());
            return Role::Claimant;
        }
        ++it->second->waiters;
        return Role::Joined;
    }

    /** Block until the claimant publishes or fails (Joined only). */
    WaitOutcome
    wait(uint64_t key)
    {
        std::unique_lock<std::mutex> lk(mtx);
        auto it = inflight.find(key);
        // Entry may already be erased by publish(); waiters keep it
        // alive through the shared_ptr they wait on.
        std::shared_ptr<Entry> e =
            it != inflight.end() ? it->second : nullptr;
        if (!e) {
            // No entry for a registered waiter would mean publish()
            // erased it early; the protocol forbids that (entries
            // persist while waiters > 0), but re-claim to stay safe.
            WaitOutcome out;
            out.reclaimed = true;
            return out;
        }
        cv.wait(lk, [&] { return e->done || e->failed; });
        --e->waiters;
        WaitOutcome out;
        if (e->done) {
            out.result = e->result;
            // Last consumer retires the completed entry so the next
            // identical request claims fresh (and hits the store).
            if (e->waiters == 0) {
                auto cur = inflight.find(key);
                if (cur != inflight.end() && cur->second == e)
                    inflight.erase(cur);
            }
            return out;
        }
        // Failure sentinel: exactly one woken waiter re-claims (we
        // reset the flag under the lock); the rest keep waiting on
        // the same entry for the re-claimant's outcome.
        e->failed = false;
        out.reclaimed = true;
        return out;
    }

    /** Complete @p key; all waiters receive @p result. */
    void
    publish(uint64_t key, std::shared_ptr<const Result> result)
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = inflight.find(key);
        if (it == inflight.end())
            return;
        it->second->done = true;
        it->second->result = std::move(result);
        // Keep the entry while waiters remain: a waiter that has
        // enter()ed but not yet reached wait() must still find its
        // result here, not spuriously re-claim. The last consuming
        // waiter retires the entry in wait().
        if (it->second->waiters == 0)
            inflight.erase(it);
        cv.notify_all();
    }

    /**
     * The claimant could not produce a result. With waiters, wake
     * exactly one to re-claim; with none, retire the entry so the
     * next identical request claims fresh.
     */
    void
    fail(uint64_t key)
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = inflight.find(key);
        if (it == inflight.end())
            return;
        if (it->second->waiters > 0) {
            it->second->failed = true;
            cv.notify_all();
        } else {
            inflight.erase(it);
        }
    }

    /** In-flight request count (tests / stats). */
    size_t
    inflightCount() const
    {
        std::lock_guard<std::mutex> lk(mtx);
        return inflight.size();
    }

    /**
     * RAII failure sentinel for the claimant path: unless disarm()ed
     * (after a successful publish), destruction calls fail(), so an
     * exception thrown anywhere between claim and publish wakes a
     * waiter instead of stranding all of them.
     */
    class Sentinel
    {
      public:
        Sentinel(Coalescer &c, uint64_t key) : c(&c), key(key) {}
        ~Sentinel()
        {
            if (c)
                c->fail(key);
        }
        void disarm() { c = nullptr; }

        Sentinel(const Sentinel &) = delete;
        Sentinel &operator=(const Sentinel &) = delete;

      private:
        Coalescer *c;
        uint64_t key;
    };

  private:
    struct Entry
    {
        bool done = false;
        bool failed = false;
        int waiters = 0;
        std::shared_ptr<const Result> result;
    };

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::map<uint64_t, std::shared_ptr<Entry>> inflight;
};

} // namespace pld

#endif // PLD_COMMON_COALESCE_H
