/**
 * @file
 * Service-level tests for the compile daemon: cross-client
 * coalescing (N identical requests, exactly one backend compile),
 * bounded-queue admission rejection as a structured diagnostic,
 * bit-identity of daemon-built artifacts against direct library
 * builds at different thread counts, warm-restart store hits, swap
 * against a store-served base, fault containment per request, the
 * per-request trace file, and the kill-the-client regression (a
 * client hanging up mid-compile never strands a second client).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "common/coalesce.h"
#include "fabric/device.h"
#include "ir/builder.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"

using namespace pld;
using namespace pld::svc;
namespace fs = std::filesystem;

namespace {

constexpr ir::Type kFx = ir::Type::fx(32, 17);

/** Two-operator scale→offset pipeline; @p factor distinguishes
 * graph "edits" (different factor → different IR hash → different
 * request key). */
ir::Graph
makePipeline(double factor)
{
    ir::OpBuilder s("scale");
    auto sin = s.input("Input_1");
    auto sout = s.output("mid");
    auto sx = s.var("x", kFx);
    s.pragma(ir::Target::HW);
    s.forLoop(0, 16, [&](ir::Ex) {
        s.set(sx, s.read(sin).bitcast(kFx));
        s.write(sout, (ir::Ex(sx) * ir::litF(factor, kFx)).cast(kFx));
    });

    ir::OpBuilder o("offset");
    auto oin = o.input("mid");
    auto oout = o.output("Output_1");
    auto ox = o.var("x", kFx);
    o.pragma(ir::Target::HW);
    o.forLoop(0, 16, [&](ir::Ex) {
        o.set(ox, o.read(oin).bitcast(kFx));
        o.write(oout, (ir::Ex(ox) + ir::litF(-2.0, kFx)).cast(kFx));
    });

    ir::GraphBuilder gb("svc_app");
    auto in = gb.extIn("Input_1");
    auto out = gb.extOut("Output_1");
    auto mid = gb.wire();
    gb.inst(s.finish(), {in}, {mid});
    gb.inst(o.finish(), {mid}, {out});
    return gb.finish();
}

CompileRequest
makeRequest(double factor, uint32_t jobs = 0)
{
    CompileRequest req;
    req.opts.level = 1; // O1
    req.opts.parallelJobs = jobs;
    req.graphText = encodeGraphText(makePipeline(factor));
    return req;
}

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/pld_daemon_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir = tmpl;
        dev = fabric::makeU50();
        cfg.storeDir = dir + "/store";
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::string dir;
    fabric::Device dev;
    ServiceConfig cfg;
};

// ---- coalescer unit behaviour ------------------------------------

TEST(Coalescer, ClaimJoinPublish)
{
    Coalescer<int> c;
    ASSERT_EQ(c.enter(1), Coalescer<int>::Role::Claimant);
    ASSERT_EQ(c.enter(1), Coalescer<int>::Role::Joined);

    std::thread waiter([&] {
        auto out = c.wait(1);
        EXPECT_FALSE(out.reclaimed);
        ASSERT_NE(out.result, nullptr);
        EXPECT_EQ(*out.result, 42);
    });
    c.publish(1, std::make_shared<const int>(42));
    waiter.join();
    EXPECT_EQ(c.inflightCount(), 0u);
}

TEST(Coalescer, FailWakesExactlyOneReclaimant)
{
    Coalescer<int> c;
    ASSERT_EQ(c.enter(9), Coalescer<int>::Role::Claimant);
    ASSERT_EQ(c.enter(9), Coalescer<int>::Role::Joined);
    ASSERT_EQ(c.enter(9), Coalescer<int>::Role::Joined);

    std::atomic<int> reclaims{0}, results{0};
    auto waitOnce = [&] {
        auto out = c.wait(9);
        if (out.reclaimed) {
            ++reclaims;
            // The re-claimant finishes the job for everyone else.
            c.publish(9, std::make_shared<const int>(7));
        } else {
            EXPECT_EQ(*out.result, 7);
            ++results;
        }
    };
    std::thread w1(waitOnce), w2(waitOnce);
    // The claimant dies without a result (the RAII sentinel path).
    c.fail(9);
    w1.join();
    w2.join();
    EXPECT_EQ(reclaims.load(), 1) << "exactly one waiter re-claims";
    EXPECT_EQ(results.load(), 1);
}

TEST(Coalescer, SentinelFiresOnUnwindOnly)
{
    Coalescer<int> c;
    c.enter(3);
    {
        Coalescer<int>::Sentinel s(c, 3);
        c.publish(3, std::make_shared<const int>(1));
        s.disarm();
    }
    // Disarmed: the publish stood; a new enter claims fresh.
    EXPECT_EQ(c.enter(3), Coalescer<int>::Role::Claimant);
    {
        Coalescer<int>::Sentinel s(c, 3);
        // no publish: simulated throw
    }
    EXPECT_EQ(c.enter(3), Coalescer<int>::Role::Claimant)
        << "failed claim with no waiters must retire the entry";
}

// ---- service behaviour -------------------------------------------

TEST_F(DaemonTest, NConcurrentIdenticalRequestsOneCompile)
{
    constexpr int kClients = 8;
    CompileService svcc(dev, cfg);
    CompileRequest req = makeRequest(1.5);

    // Hold the claimant inside execution until every client has
    // submitted, so the others deterministically join in flight.
    svcc.setExecuteHook([&] {
        while (svcc.stats().submitted.load() < kClients)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });

    std::vector<std::thread> clients;
    std::vector<CompileResponse> resp(kClients);
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back(
            [&, i] { resp[i] = svcc.compile(req); });
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(svcc.stats().storeMisses.load(), 1u)
        << "identical edits must trigger exactly one backend compile";
    EXPECT_EQ(svcc.stats().coalesced.load() +
                  svcc.stats().storeHits.load(),
              static_cast<uint64_t>(kClients - 1));
    EXPECT_GE(svcc.stats().coalesced.load(), 1u);
    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(resp[i].status, RespStatus::Ok) << "client " << i;
        EXPECT_EQ(resp[i].blob, resp[0].blob)
            << "all clients must see the identical artifact";
    }
}

TEST_F(DaemonTest, AdmissionRejectionIsStructuredNotAHang)
{
    cfg.maxExecuting = 1;
    cfg.maxQueued = 0;
    CompileService svcc(dev, cfg);

    std::promise<void> entered, release;
    auto released = release.get_future().share();
    svcc.setExecuteHook([&, flagged = std::make_shared<
                                std::atomic<bool>>(false)]() mutable {
        if (!flagged->exchange(true))
            entered.set_value();
        released.wait();
    });

    CompileResponse holder_resp;
    std::thread holder([&] {
        holder_resp = svcc.compile(makeRequest(1.5));
    });
    entered.get_future().wait();
    svcc.setExecuteHook(nullptr);

    // Queue bound is zero and the only slot is held: a *different*
    // request must come back rejected immediately — a structured
    // diagnostic, not a hang and not an abort.
    CompileResponse rejected = svcc.compile(makeRequest(2.5));
    EXPECT_EQ(rejected.status, RespStatus::Rejected);
    ASSERT_FALSE(rejected.diags.diags.empty());
    const Diagnostic &d = rejected.diags.diags.front();
    EXPECT_EQ(d.code, CompileCode::AdmissionRejected);
    EXPECT_EQ(d.severity, DiagSeverity::Error);
    EXPECT_TRUE(d.retriable);
    EXPECT_NE(d.detail.find("queue full"), std::string::npos);
    EXPECT_EQ(svcc.stats().rejected.load(), 1u);

    release.set_value();
    holder.join();
    EXPECT_EQ(holder_resp.status, RespStatus::Ok)
        << "the executing request must be unaffected by rejections";

    // The rejected request succeeds on resubmit (retriable).
    EXPECT_EQ(svcc.compile(makeRequest(2.5)).status, RespStatus::Ok);
}

TEST_F(DaemonTest, DaemonArtifactBitIdenticalToDirectBuild)
{
    // Direct library build, single-threaded.
    ir::Graph g = makePipeline(1.5);
    flow::CompileOptions copts;
    copts.parallelJobs = 1;
    flow::PldCompiler direct(dev, copts);
    auto direct_blob =
        BuildArtifact::fromAppBuild(direct.build(g, flow::OptLevel::O1))
            .encode();

    // Service builds at parallelJobs 1 and 4, separate cold stores.
    for (uint32_t jobs : {1u, 4u}) {
        ServiceConfig jcfg = cfg;
        jcfg.storeDir = dir + "/store_j" + std::to_string(jobs);
        CompileService svcc(dev, jcfg);
        CompileRequest req = makeRequest(1.5, jobs);
        CompileResponse resp = svcc.compile(req);
        ASSERT_EQ(resp.status, RespStatus::Ok);
        EXPECT_FALSE(resp.storeHit);
        EXPECT_EQ(resp.blob, direct_blob)
            << "daemon artifact at parallelJobs=" << jobs
            << " must be bit-identical to the direct build";
    }

    // And the request key ignores parallelJobs entirely, so those
    // requests would have coalesced had they shared a daemon.
    EXPECT_EQ(CompileService::requestKey(makeRequest(1.5, 1)),
              CompileService::requestKey(makeRequest(1.5, 4)));
}

TEST_F(DaemonTest, WarmRestartServesStoreHitAndSwaps)
{
    CompileRequest req = makeRequest(1.5);
    uint64_t base_key = 0;
    {
        CompileService first(dev, cfg);
        CompileResponse r = first.compile(req);
        ASSERT_EQ(r.status, RespStatus::Ok);
        EXPECT_FALSE(r.storeHit);
        base_key = r.key;
    } // daemon "restart": service torn down, store dir survives

    CompileService second(dev, cfg);
    CompileResponse r2 = second.compile(req);
    ASSERT_EQ(r2.status, RespStatus::Ok);
    EXPECT_TRUE(r2.storeHit)
        << "a warm-restarted daemon must serve the on-disk artifact";
    EXPECT_EQ(r2.key, base_key);
    EXPECT_EQ(second.store().stats().hits.load(), 1u);

    // Hot-swap an edited operator against the store-served base.
    SwapRequest sw;
    sw.opts = req.opts;
    sw.baseBuild = base_key;
    sw.opName = "scale";
    sw.graphText = encodeGraphText(makePipeline(1.75));
    CompileResponse r3 = second.swap(sw);
    ASSERT_EQ(r3.status, RespStatus::Ok) << r3.diags.render();
    SwapBlob sb = SwapBlob::decode(r3.blob);
    EXPECT_EQ(sb.op, "scale");
    EXPECT_TRUE(sb.fnChanged);
    EXPECT_TRUE(sb.binding.hasFallback);
}

TEST_F(DaemonTest, SwapAgainstUnknownBaseIsDiagnosed)
{
    CompileService svcc(dev, cfg);
    SwapRequest sw;
    sw.baseBuild = 0xdeadbeef;
    sw.opName = "scale";
    sw.graphText = encodeGraphText(makePipeline(1.5));
    CompileResponse r = svcc.swap(sw);
    EXPECT_EQ(r.status, RespStatus::Failed);
    ASSERT_FALSE(r.diags.diags.empty());
    EXPECT_EQ(r.diags.diags.front().code, CompileCode::SwapRejected);
    EXPECT_EQ(r.diags.diags.front().stage, CompileStage::Swap);
}

TEST_F(DaemonTest, InjectedFaultContainedToRequestingClient)
{
    CompileService svcc(dev, cfg);

    // Every compile of 'scale' throws for THIS request only.
    CompileRequest faulty = makeRequest(1.5);
    faulty.opts.faultSpec = "throw:scale";
    CompileResponse bad = svcc.compile(faulty);
    EXPECT_EQ(bad.status, RespStatus::Failed);
    EXPECT_FALSE(bad.diags.diags.empty());
    EXPECT_EQ(svcc.stats().failed.load(), 1u);

    // A clean client with the same graph is unaffected (different
    // request key, different backend compiler) and the failure was
    // never stored.
    CompileResponse good = svcc.compile(makeRequest(1.5));
    EXPECT_EQ(good.status, RespStatus::Ok);
    EXPECT_FALSE(good.storeHit);
    EXPECT_FALSE(good.blob.empty());

    // A malformed fault spec is a structured diagnostic, not a crash.
    CompileRequest bad_spec = makeRequest(1.5);
    bad_spec.opts.faultSpec = "not_a_fault_kind:zzz";
    CompileResponse r = svcc.compile(bad_spec);
    EXPECT_EQ(r.status, RespStatus::Failed);
    ASSERT_FALSE(r.diags.diags.empty());
    EXPECT_EQ(r.diags.diags.front().code,
              CompileCode::FaultSpecInvalid);
}

TEST_F(DaemonTest, PerRequestTraceFileWritten)
{
    CompileService svcc(dev, cfg);
    CompileRequest req = makeRequest(1.5);
    req.opts.traceFile = dir + "/request.trace.json";
    CompileResponse r = svcc.compile(req);
    ASSERT_EQ(r.status, RespStatus::Ok);

    std::ifstream f(req.opts.traceFile);
    ASSERT_TRUE(f.is_open()) << "trace file must exist";
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("traceEvents"), std::string::npos);
    EXPECT_NE(text.find("pld.op"), std::string::npos)
        << "the per-request trace must contain compile spans";
}

// ---- socket-level tests ------------------------------------------

TEST_F(DaemonTest, SocketRoundTripAndStats)
{
    CompileService svcc(dev, cfg);
    DaemonServer server(svcc, dir + "/pldd.sock");
    server.start();

    Client client(server.socketPath());
    ASSERT_TRUE(client.connect());
    CompileResponse r = client.compile(makeRequest(1.5));
    EXPECT_EQ(r.status, RespStatus::Ok);
    EXPECT_FALSE(r.blob.empty());

    std::string stats = client.stats();
    EXPECT_NE(stats.find("svc.submitted 1"), std::string::npos)
        << stats;

    EXPECT_TRUE(client.shutdownDaemon());
    server.waitForShutdownRequest();
    server.stop();
}

TEST_F(DaemonTest, ClientDeathMidCompileNeverStrandsWaiters)
{
    CompileService svcc(dev, cfg);
    DaemonServer server(svcc, dir + "/pldd.sock");
    server.start();
    CompileRequest req = makeRequest(3.25);

    // Client A fires the request and hangs up without reading the
    // response — its handler thread is now compiling for a dead peer.
    {
        Client a(server.socketPath());
        ASSERT_TRUE(a.connect());
        a.submitOnly(req);
    } // destructor closes the socket

    // Client B submits the identical request and must receive the
    // artifact: either it coalesces onto A's in-flight compile, or
    // A's finished result is served from the store/coalescer.
    Client b(server.socketPath());
    ASSERT_TRUE(b.connect());
    CompileResponse r = b.compile(req);
    EXPECT_EQ(r.status, RespStatus::Ok);
    EXPECT_FALSE(r.blob.empty());

    server.stop(); // joins A's handler
    EXPECT_EQ(svcc.stats().storeMisses.load(), 1u)
        << "the dead client's compile and B's must have shared one "
           "backend execution";
}

} // namespace
