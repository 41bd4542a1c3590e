/**
 * Concurrency stress for the artifact cache: many threads build
 * graphs sharing operators through one PldCompiler at once. The
 * cache must stay consistent — every lookup is exactly one hit or
 * one miss, misses equal the number of unique artifacts, and no
 * artifact is ever compiled twice (late arrivals wait on the
 * in-flight compile instead of duplicating it). The CacheEntry
 * tests drive PldCompiler::cached() directly with compile callbacks
 * that block until a second caller has joined, so the join paths
 * run in a fixed order. Run under -fsanitize=thread in CI to catch
 * data races in the compile path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fabric/device.h"
#include "ir/builder.h"
#include "obs/trace.h"
#include "pld/compiler.h"

using namespace pld;
using namespace pld::ir;
using namespace pld::flow;

namespace {

const fabric::Device &
device()
{
    static fabric::Device d = fabric::makeU50();
    return d;
}

OperatorFn
makeScale(const std::string &name, double k, int n)
{
    constexpr Type fx = Type::fx(32, 17);
    OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    auto x = b.var("x", fx);
    b.forLoop(0, n, [&](Ex) {
        b.set(x, b.read(in).bitcast(fx));
        b.write(out, (Ex(x) * litF(k, fx)).cast(fx));
    });
    return b.finish();
}

/** Two-operator app; the first operator is shared across variants. */
Graph
makeApp(double second_k)
{
    GraphBuilder gb("app");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto mid = gb.wire();
    gb.inst(makeScale("shared", 2.0, 8), {in}, {mid});
    gb.inst(makeScale("tail", second_k, 8), {mid}, {out});
    return gb.finish();
}

CompileOptions
quickOpts()
{
    CompileOptions o;
    o.effort = 0.1;
    o.parallelJobs = 2;
    return o;
}

/** A stand-in compile result: cached() needs only a name (the fault
 * site), the effort and the degraded flag. */
std::shared_ptr<OperatorArtifact>
fakeArtifact(double effort, bool degraded = false)
{
    auto a = std::make_shared<OperatorArtifact>();
    a->name = "x";
    a->effortUsed = effort;
    a->outcome.degraded = degraded;
    return a;
}

/** Block until @p n callers have joined an in-flight compile. */
void
awaitJoined(obs::ScopedTracer &st, int64_t n)
{
    for (int i = 0; i < 20000; ++i) {
        if (st.tracer().metrics().snapshot().counter(
                "sched.cache.waits") >= n)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "timed out waiting for " << n << " joined caller(s)";
}

/**
 * One claimant, on its own thread, whose compile (generation 0)
 * blocks until release(). The constructor returns once that compile
 * is running, so the next caller of the same key is sure to join it.
 */
class BlockedClaimant
{
  public:
    BlockedClaimant(PldCompiler &pc, uint64_t key, double effort,
                    PldCompiler::CompileFn compile)
    {
        auto running = std::make_shared<std::promise<void>>();
        std::future<void> started = running->get_future();
        std::shared_future<void> go = gate.get_future().share();
        th = std::thread([&pc, key, effort, compile, running, go,
                          this] {
            try {
                pc.cached(key, effort, [&](int gen) {
                    running->set_value();
                    go.wait();
                    return compile(gen);
                });
            } catch (const std::exception &) {
                threw = true;
            }
        });
        started.wait();
    }
    ~BlockedClaimant()
    {
        release();
        finish();
    }

    void
    release()
    {
        if (!released) {
            released = true;
            gate.set_value();
        }
    }
    void
    finish()
    {
        if (th.joinable())
            th.join();
    }
    bool threw = false;

  private:
    bool released = false;
    std::promise<void> gate;
    std::thread th;
};

} // namespace

TEST(CacheStress, ConcurrentBuildsCompileEachArtifactOnce)
{
    const int kThreads = 8;
    const int kReps = 3;
    PldCompiler pc(device(), quickOpts());
    Graph g = makeApp(0.5);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int r = 0; r < kReps; ++r) {
                AppBuild b = pc.build(g, OptLevel::O1);
                EXPECT_EQ(b.ops.size(), 2u);
                EXPECT_EQ(b.ops[0].name, "shared");
                EXPECT_GT(b.ops[0].net.cells.size(), 0u);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    const CacheStats &st = pc.cacheStats();
    const uint64_t lookups = uint64_t(kThreads) * kReps * 2;
    EXPECT_EQ(st.hits + st.misses, lookups)
        << "every lookup is exactly one hit or one miss";
    EXPECT_EQ(st.misses, 2u) << "one miss per unique artifact";
    EXPECT_EQ(st.compiles, 2u) << "no artifact compiled twice";
    EXPECT_EQ(st.hits, lookups - 2u);
}

TEST(CacheStress, SharedOperatorAcrossGraphVariants)
{
    // Different graphs share operator "shared"; it lands on the same
    // page by deterministic first-fit, so all variants hit one cache
    // entry while their tails compile separately.
    const int kThreads = 6;
    const int kReps = 2;
    PldCompiler pc(device(), quickOpts());
    std::vector<Graph> variants;
    for (int v = 0; v < 3; ++v)
        variants.push_back(makeApp(0.25 * (v + 1)));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int r = 0; r < kReps; ++r) {
                const Graph &g = variants[(t + r) % variants.size()];
                AppBuild b = pc.build(g, OptLevel::O1);
                EXPECT_EQ(b.ops.size(), 2u);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    const CacheStats &st = pc.cacheStats();
    const uint64_t lookups = uint64_t(kThreads) * kReps * 2;
    // Unique artifacts: "shared" (one page, one key) + 3 tails.
    EXPECT_EQ(st.misses, 4u);
    EXPECT_EQ(st.compiles, 4u);
    EXPECT_EQ(st.hits + st.misses, lookups);
}

TEST(CacheStress, ClearCacheResetsCounters)
{
    PldCompiler pc(device(), quickOpts());
    pc.build(makeApp(0.5), OptLevel::O1);
    EXPECT_GT(pc.cacheStats().misses, 0u);
    pc.clearCache();
    EXPECT_EQ(pc.cacheStats().hits, 0u);
    EXPECT_EQ(pc.cacheStats().misses, 0u);
    EXPECT_EQ(pc.cacheStats().compiles, 0u);
    EXPECT_EQ(pc.cacheStats().failures, 0u);
    EXPECT_EQ(pc.cacheStats().corrupt, 0u);
    // Rebuild after clear recompiles everything.
    pc.build(makeApp(0.5), OptLevel::O1);
    EXPECT_EQ(pc.cacheStats().misses, 2u);
    EXPECT_EQ(pc.cacheStats().compiles, 2u);
}

TEST(CacheStress, FailureSentinelNeverStrandsWaiters)
{
    // Regression for the latent waiter hang: before the failure
    // sentinel, a compile that threw left its cache entry null
    // forever and every waiter slept on the condition variable for
    // good. Here the first compile of "shared" throws while many
    // threads race on the same key; the test passing at all (no
    // hang) is the point, and the counters must still balance.
    const int kThreads = 8;
    CompileOptions o = quickOpts();
    o.faults = FaultPlan::parse("throw:shared*1");
    PldCompiler pc(device(), o);
    Graph g = makeApp(0.5);

    std::vector<int> failed(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            AppBuild b = pc.build(g, OptLevel::O1);
            failed[t] = b.report.failedCount();
            EXPECT_EQ(b.ops.size(), 2u);
        });
    }
    for (auto &t : threads)
        t.join();

    int total_failed = 0;
    for (int f : failed)
        total_failed += f;
    EXPECT_EQ(total_failed, 1)
        << "the injected throw surfaces in exactly one build";

    const CacheStats &st = pc.cacheStats();
    const uint64_t lookups = uint64_t(kThreads) * 2;
    EXPECT_EQ(st.hits + st.misses, lookups)
        << "every lookup is exactly one hit or one miss";
    EXPECT_EQ(st.failures, 1u);
    EXPECT_EQ(st.compiles + st.failures, st.misses)
        << "every miss either compiled or published a failure";
    EXPECT_EQ(st.compiles, 2u) << "no artifact compiled twice";
}

TEST(CacheEntry, JoinedWaiterRecompilesInjectedCorruptArtifact)
{
    // The claimant stores its artifact under a corrupted checksum
    // (cache_corrupt fires on generation 0 only). A waiter that
    // joined the compile must check what it is handed exactly as a
    // hit would: it finds the mismatch, and the entry is recompiled
    // once, with the next generation.
    obs::ScopedTracer st;
    CompileOptions o = quickOpts();
    o.faults = FaultPlan::parse("cache_corrupt:x*1");
    PldCompiler pc(device(), o);
    const uint64_t key = 42;

    BlockedClaimant a(pc, key, 0.1,
                      [](int) { return fakeArtifact(0.1); });
    std::atomic<int> b_gen{-1};
    bool b_hit = true;
    std::thread b([&] {
        pc.cached(key, 0.1,
                  [&](int gen) {
                      b_gen = gen;
                      return fakeArtifact(0.1);
                  },
                  &b_hit);
    });
    awaitJoined(st, 1);
    a.release();
    a.finish();
    b.join();

    EXPECT_EQ(b_gen.load(), 1) << "the joined waiter recompiled";
    EXPECT_FALSE(b_hit);
    const CacheStats &cs = pc.cacheStats();
    EXPECT_EQ(cs.corrupt, 1u);
    EXPECT_EQ(cs.misses, 2u);
    EXPECT_EQ(cs.compiles, 2u);
    EXPECT_EQ(cs.hits, 0u);

    // The recompiled entry is sound: the next lookup hits.
    bool hit = false;
    pc.cached(
        key, 0.1,
        [](int) -> std::shared_ptr<OperatorArtifact> {
            throw std::logic_error("a sound entry must not recompile");
        },
        &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cs.corrupt, 1u) << "a corrupt entry is recompiled once";
}

TEST(CacheEntry, JoinedWaiterRecompilesDegradedBelowItsEffort)
{
    // The claimant's compile degrades at effort 0.1; a waiter that
    // joined it asking for 0.5 must not be served that artifact —
    // the same degraded-vs-effort check as a hit. It evicts and
    // recompiles at its own effort with the next generation.
    obs::ScopedTracer st;
    PldCompiler pc(device(), quickOpts());
    const uint64_t key = 7;

    BlockedClaimant a(pc, key, 0.1, [](int) {
        return fakeArtifact(0.1, /*degraded=*/true);
    });
    std::atomic<int> b_gen{-1};
    std::shared_ptr<const OperatorArtifact> got;
    std::thread b([&] {
        got = pc.cached(key, 0.5, [&](int gen) {
            b_gen = gen;
            return fakeArtifact(0.5);
        });
    });
    awaitJoined(st, 1);
    a.release();
    a.finish();
    b.join();

    EXPECT_EQ(b_gen.load(), 1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->effortUsed, 0.5);
    EXPECT_FALSE(got->outcome.degraded);
    const CacheStats &cs = pc.cacheStats();
    EXPECT_EQ(cs.misses, 2u);
    EXPECT_EQ(cs.compiles, 2u);
    EXPECT_EQ(cs.hits, 0u);
    EXPECT_EQ(cs.corrupt, 0u);
}

TEST(CacheEntry, ThrowingCompileWakesExactlyOneReclaimant)
{
    // Generation 0 throws after two callers joined it. The claimant
    // sees the exception; exactly one waiter re-claims and compiles
    // generation 1, and the other waits for that compile and hits.
    obs::ScopedTracer st;
    PldCompiler pc(device(), quickOpts());
    const uint64_t key = 9;

    BlockedClaimant a(pc, key, 0.1,
                      [](int) -> std::shared_ptr<OperatorArtifact> {
                          throw std::runtime_error("compile died");
                      });
    std::atomic<int> compiles{0};
    std::atomic<int> last_gen{-1};
    bool hit[2] = {false, false};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 2; ++i) {
        waiters.emplace_back([&, i] {
            pc.cached(key, 0.1,
                      [&](int gen) {
                          ++compiles;
                          last_gen = gen;
                          return fakeArtifact(0.1);
                      },
                      &hit[i]);
        });
    }
    awaitJoined(st, 2);
    a.release();
    a.finish();
    for (auto &t : waiters)
        t.join();

    EXPECT_TRUE(a.threw) << "the claimant sees its compile's exception";
    EXPECT_EQ(compiles.load(), 1) << "exactly one waiter re-claimed";
    EXPECT_EQ(last_gen.load(), 1) << "with the next generation";
    EXPECT_NE(hit[0], hit[1]) << "the other waiter shares its result";
    const CacheStats &cs = pc.cacheStats();
    EXPECT_EQ(cs.failures, 1u);
    EXPECT_EQ(cs.compiles, 1u);
    EXPECT_EQ(cs.misses, 2u);
    EXPECT_EQ(cs.hits, 1u);
    EXPECT_EQ(cs.compiles + cs.failures, cs.misses);
}
