/**
 * service: a pldd daemon, started by the benchmark, serves K
 * closed-loop svc::Client threads (K <= nproc). Per round each client
 * pings, then sends
 *
 *  - a new edit of its own app (reaches the backend: one operator
 *    recompiled, the artifact durably put in the store);
 *  - its previous edit again, its app's base build in round 0 (a
 *    store hit);
 *  - one edit shared by all clients, sent at once behind a barrier
 *    (one backend compile, the rest coalesce or hit the store);
 *  - a swap request retargeting its edited operator to the softcore.
 *
 * The mix is synthetic: one request of each kind per client and
 * round, so every service layer is used in every round; no measured
 * request traffic sets the shares.
 *
 * The unit operation is a compile request that reaches the backend.
 * After the loop every served artifact is compared bit for bit with
 * a direct PldCompiler build of the same request, the served base
 * builds and first-round edits run against the golden vectors, and
 * the daemon's accounting invariant is checked.
 */

#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "fabric/device.h"
#include "pld/compiler.h"
#include "rosetta/benchmark.h"
#include "svc/client.h"
#include "svc/wire.h"

extern char **environ;

namespace perfbench {

using namespace pld;

namespace {

/** A pldd child process; the destructor always reaps it. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &store, const std::string &trace_prefix)
        : socket_(socket)
    {
        std::filesystem::remove(socket);
        std::filesystem::remove_all(store);
        std::vector<std::string> args = {binary,          "--socket",
                                         socket,          "--store",
                                         store,           "--budget-mb",
                                         "64",            "--idle-timeout-ms",
                                         "0"};
        std::vector<std::string> env;
        for (char **e = environ; *e; ++e) {
            std::string kv = *e;
            if (kv.rfind("PLD_TRACE=", 0) != 0 &&
                kv.rfind("PLD_METRICS=", 0) != 0)
                env.push_back(kv);
        }
        if (!trace_prefix.empty()) {
            env.push_back("PLD_TRACE=" + trace_prefix + ".trace.json");
            env.push_back("PLD_METRICS=" + trace_prefix +
                          ".metrics.json");
        }
        std::vector<char *> argv, envp;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        for (auto &e : env)
            envp.push_back(e.data());
        envp.push_back(nullptr);
        if (posix_spawn(&pid_, binary.c_str(), nullptr, nullptr,
                        argv.data(), envp.data()) != 0)
            throw std::runtime_error("cannot start " + binary);
        // Ready once it answers a ping.
        auto t0 = Clock::now();
        for (;;) {
            svc::Client c(socket_);
            if (c.connect() && c.ping(1))
                break;
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("pldd exited at start");
            }
            if (secondsSince(t0) > 30)
                throw std::runtime_error("pldd did not come up");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon() { stop(); }

    int pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    /** Ask the daemon to exit (it flushes PLD_TRACE / PLD_METRICS)
     * and reap it; kill it if it does not go within 30 s. */
    void
    stop()
    {
        if (pid_ < 0)
            return;
        try {
            svc::Client c(socket_);
            c.setDeadlineMs(10000);
            if (c.connect())
                c.shutdownDaemon();
        } catch (const std::exception &) {
        }
        auto t0 = Clock::now();
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 30) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** Closed-loop clients (at most nproc): two keep the daemon's
 * concurrent compiles within the cores, which holds their latency
 * steady, and still make the shared edit coalesce. */
constexpr int kClients = 2;

/** The daemon keeps every build it served as a swap base, so its
 * resident set grows with the rounds run. It is read after this many
 * rounds, late enough that that growth dominates the figure, and a
 * timed run lasts at least this many rounds so that it always gets
 * there (a --rounds run reads it at its end). */
constexpr uint64_t kRssRounds = 150;

/** Rounds whose served edits run on the simulated U50 after the
 * loop (with the base builds, 36 runs: enough for a steady
 * sim_mcycles_per_s). */
constexpr uint64_t kCheckedRounds = 10;

svc::RequestOptions
requestOptions()
{
    svc::RequestOptions o;
    o.level = static_cast<uint8_t>(flow::OptLevel::O1);
    return o;
}

/** One request as sent and as answered. */
struct Sent
{
    enum Kind { Compile, Swap } kind = Compile;
    size_t app = 0;
    uint64_t round = 0;
    std::string op;
    std::string graphText;
    uint64_t key = 0;
    bool ok = false;
    bool cold = false;
    std::vector<uint8_t> blob;
};

struct Running
{
    std::unique_ptr<Daemon> daemon;
    /** Request key (= build id) and blob of each app's base build. */
    std::vector<uint64_t> baseKey;
    std::vector<std::vector<uint8_t>> baseBlob;
};

/**
 * The operator the @p k-th edit of an app picks: every one of its
 * @p n operators once per cycle of n edits, in an order @p rng
 * shuffles anew for each cycle, so that every run edits nearly the
 * same mix of operators (their compile times differ by up to 10x)
 * whatever the seed.
 */
size_t
cycledOp(std::vector<size_t> &order, uint64_t k, size_t n, Rng &rng)
{
    if (k % n == 0) {
        order.resize(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        shuffle(order, rng);
    }
    return order[k % n];
}

std::map<std::string, uint64_t>
parseStats(const std::string &text)
{
    std::map<std::string, uint64_t> m;
    std::istringstream is(text);
    std::string name;
    std::string value;
    while (is >> name >> value)
        m[name] = std::strtoull(value.c_str(), nullptr, 10);
    return m;
}

} // namespace

void
runService(const Options &opts, Result &res)
{
    if (opts.pldd.empty())
        throw std::runtime_error("service needs --pldd");
    const fabric::Device dev = fabric::makeU50();
    const std::vector<rosetta::Benchmark> apps = rosetta::allBenchmarks();
    std::vector<std::string> baseText;
    for (const auto &bm : apps)
        baseText.push_back(svc::encodeGraphText(bm.graph));

    auto running = repeatSetup(res, [&](int i) {
        auto r = std::make_unique<Running>();
        std::string prefix;
        if (!opts.traceDir.empty())
            prefix = opts.traceDir +
                     (i + 1 == kSetups ? "/pldd" : "/pldd-setup");
        r->daemon = std::make_unique<Daemon>(
            opts.pldd, "svc-" + std::to_string(i) + ".sock",
            "svc-store-" + std::to_string(i), prefix);
        svc::Client c(r->daemon->socket());
        c.setDeadlineMs(120000);
        if (!c.connect())
            throw std::runtime_error("cannot connect to pldd");
        for (size_t a = 0; a < apps.size(); ++a) {
            svc::CompileRequest req;
            req.opts = requestOptions();
            req.graphText = baseText[a];
            svc::CompileResponse resp = c.compile(req);
            if (resp.status != svc::RespStatus::Ok)
                throw std::runtime_error("base build of " + apps[a].name +
                                         " failed in pldd");
            r->baseKey.push_back(resp.key);
            r->baseBlob.push_back(resp.blob);
        }
        return r;
    });
    const std::string socket = running->daemon->socket();

    const int clients = std::min(kClients, cpuCount());
    std::map<std::string, uint64_t> statsBefore;
    {
        svc::Client c(socket);
        if (!c.connect())
            throw std::runtime_error("cannot connect to pldd");
        statsBefore = parseStats(c.stats());
    }

    std::mutex mtx; // guards res.samples/res.errors and `sent`
    std::vector<Sent> sent;
    std::atomic<bool> go{true};
    std::atomic<bool> aborted{false};
    uint64_t round = 0;
    Clock::time_point loopStart;
    Clock::time_point roundStartAt;
    std::vector<double> roundS;
    const int daemonPid = running->daemon->pid();
    // Runs while every client waits at the round barrier, so the
    // daemon is idle too. Its samples join res after the clients end.
    Result hostCal;
    auto decide = [&]() noexcept {
        calibrateHost(hostCal);
        auto now = Clock::now();
        if (round > 0)
            roundS.push_back(
                std::chrono::duration<double>(now - roundStartAt).count());
        if (round == kRssRounds)
            res.peakRssMb = peakRssMb(daemonPid);
        roundStartAt = now;
        bool more = !aborted.load() &&
                    (round == 0 ||
                     (opts.rounds ? round < opts.rounds
                                  : round < kRssRounds ||
                                        secondsSince(loopStart) <
                                            opts.seconds));
        go.store(more);
        if (more)
            ++round;
    };
    // Rounds start together (the completion step decides whether
    // another round runs); the shared edit is sent together.
    std::barrier roundStart(clients, decide);
    std::barrier together(clients);

    auto client = [&](int id) {
        std::vector<Sent> mine;
        std::map<std::string, std::vector<double>> lat;
        try {
            svc::Client c(socket);
            c.setDeadlineMs(120000);
            if (!c.connect())
                throw std::runtime_error("client cannot connect");
            Rng rng(opts.seed * 1000003ull + static_cast<uint64_t>(id));
            const size_t own = static_cast<size_t>(id) % apps.size();
            auto send = [&](Sent s) {
                svc::CompileRequest req;
                req.opts = requestOptions();
                req.graphText = s.graphText;
                auto t0 = Clock::now();
                svc::CompileResponse r = c.compile(req);
                double ms = secondsSince(t0) * 1e3;
                s.key = r.key;
                s.ok = r.status == svc::RespStatus::Ok;
                s.cold = !r.storeHit && !r.coalesced;
                s.blob = std::move(r.blob);
                lat[s.cold ? "cold" : r.coalesced ? "coalesced" : "hit"]
                    .push_back(ms);
                mine.push_back(std::move(s));
                return mine.size() - 1;
            };
            // Every client draws the shared edits' operators from the
            // same per-app sequences.
            std::vector<size_t> ownOrder;
            std::vector<std::vector<size_t>> sharedOrder(apps.size());
            std::vector<Rng> sharedRng;
            for (size_t a = 0; a < apps.size(); ++a)
                sharedRng.emplace_back(opts.seed * 7919ull + 1000003ull * a);
            size_t prevEdit = SIZE_MAX;
            for (;;) {
                roundStart.arrive_and_wait();
                if (!go.load())
                    break;
                const uint64_t r = round - 1;
                auto p0 = Clock::now();
                if (!c.ping(r))
                    throw std::runtime_error("ping not echoed");
                lat["ping"].push_back(secondsSince(p0) * 1e3);

                // A new edit of this client's app.
                ir::Graph g = apps[own].graph;
                size_t oi = cycledOp(ownOrder, r, g.ops.size(), rng);
                renameEdit(g.ops[oi].fn, rng,
                           "s" + std::to_string(opts.seed) + "c" +
                               std::to_string(id) + "r" +
                               std::to_string(r));
                Sent edit;
                edit.app = own;
                edit.round = r;
                edit.op = g.ops[oi].fn.name;
                edit.graphText = svc::encodeGraphText(g);
                size_t e = send(edit);
                if (!mine[e].cold)
                    throw std::runtime_error("a new edit did not reach "
                                             "the backend");

                // A repeat: the previous edit (the base build in
                // round 0).
                Sent again;
                again.app = own;
                again.graphText = prevEdit == SIZE_MAX
                                      ? baseText[own]
                                      : mine[prevEdit].graphText;
                send(again);
                prevEdit = e;

                // One edit shared by every client, sent at once.
                together.arrive_and_wait();
                Rng shared(opts.seed * 7919ull + r);
                Sent common;
                common.app = r % apps.size();
                common.round = r;
                ir::Graph cg = apps[common.app].graph;
                size_t co = cycledOp(sharedOrder[common.app],
                                     r / apps.size(), cg.ops.size(),
                                     sharedRng[common.app]);
                renameEdit(cg.ops[co].fn, shared,
                           "s" + std::to_string(opts.seed) + "k" +
                               std::to_string(r));
                common.op = cg.ops[co].fn.name;
                common.graphText = svc::encodeGraphText(cg);
                send(common);

                // Swap the edited operator onto its softcore.
                g.ops[oi].fn.pragma.target = ir::Target::RISCV;
                svc::SwapRequest sreq;
                sreq.opts = requestOptions();
                sreq.baseBuild = running->baseKey[own];
                sreq.opName = edit.op;
                sreq.graphText = svc::encodeGraphText(g);
                auto s0 = Clock::now();
                svc::CompileResponse sr = c.swap(sreq);
                lat["swap"].push_back(secondsSince(s0) * 1e3);
                Sent sw;
                sw.kind = Sent::Swap;
                sw.app = own;
                sw.op = edit.op;
                sw.graphText = sreq.graphText;
                sw.key = sr.key;
                sw.ok = sr.status == svc::RespStatus::Ok;
                sw.cold = !sr.storeHit && !sr.coalesced;
                sw.blob = std::move(sr.blob);
                mine.push_back(std::move(sw));
            }
        } catch (const std::exception &ex) {
            aborted.store(true);
            std::lock_guard<std::mutex> lk(mtx);
            res.fail(std::string("client: ") + ex.what());
            roundStart.arrive_and_drop();
            together.arrive_and_drop();
        }
        std::lock_guard<std::mutex> lk(mtx);
        for (auto &[k, v] : lat) {
            auto &dst = res.samples["svc." + k + "_ms"];
            dst.insert(dst.end(), v.begin(), v.end());
        }
        for (auto &s : mine)
            sent.push_back(std::move(s));
    };

    {
        loopStart = Clock::now();
        std::vector<std::thread> threads;
        for (int i = 0; i < clients; ++i)
            threads.emplace_back(client, i);
        for (auto &t : threads)
            t.join();
        res.rounds = round;
        res.samples["round_s"] = roundS;
        auto &cal = res.samples["host.cal_s"];
        const auto &more = hostCal.samples["host.cal_s"];
        cal.insert(cal.end(), more.begin(), more.end());
    }
    res.samples["pldc.ping_ms"] = std::move(res.samples["svc.ping_ms"]);
    res.samples.erase("svc.ping_ms");
    res.opMs = res.samples["svc.cold_ms"];

    std::map<std::string, uint64_t> statsAfter;
    {
        svc::Client c(socket);
        if (!c.connect())
            throw std::runtime_error("cannot connect to pldd");
        statsAfter = parseStats(c.stats());
    }
    if (res.peakRssMb == 0)
        res.peakRssMb = peakRssMb(daemonPid);
    running->daemon->stop();

    for (const char *k :
         {"svc.submitted", "svc.rejected", "svc.coalesced",
          "svc.store_hits", "svc.store_misses", "svc.failed",
          "store.puts"})
        res.layer[k] = static_cast<double>(statsAfter[k] - statsBefore[k]);
    uint64_t submitted = statsAfter["svc.submitted"];
    uint64_t classified = statsAfter["svc.rejected"] +
                          statsAfter["svc.coalesced"] +
                          statsAfter["svc.store_hits"] +
                          statsAfter["svc.store_misses"];
    if (submitted != classified)
        res.fail("accounting invariant broken: submitted " +
                 std::to_string(submitted) + " != classified " +
                 std::to_string(classified));
    if (statsAfter["svc.rejected"] != 0)
        res.fail("admission rejected a request under K <= nproc clients");

    // Served builds on the simulated U50: every base build, and the
    // new and shared edits of the first kCheckedRounds rounds.
    SimTotals sim;
    // The checks run after the timed loop, away from its host
    // calibration, so each is timed beside a calibration of its own
    // (run.py scales the simulation rate by these).
    auto runServed = [&](size_t app, const std::vector<uint8_t> &blob) {
        Result cal;
        calibrateHost(cal, true);
        res.samples["sim.cal_s"].push_back(cal.samples["host.cal_s"][0]);
        flow::AppBuild b =
            svc::BuildArtifact::decode(blob).toSkeletonAppBuild();
        sys::SystemSim s(apps[app].graph, b.bindings, b.sysCfg);
        s.loadInput(0, apps[app].input);
        auto t0 = Clock::now();
        sys::RunStats rs = s.run();
        sim.add(rs, secondsSince(t0));
        if (!rs.completed || s.takeOutput(0) != apps[app].expected)
            res.operationFailed("served build of " + apps[app].name +
                                " fails its golden check");
    };
    for (size_t a = 0; a < apps.size(); ++a)
        runServed(a, running->baseBlob[a]);
    for (const Sent &s : sent)
        if (s.kind == Sent::Compile && s.cold && s.ok &&
            s.round < kCheckedRounds)
            runServed(s.app, s.blob);
    noteSim(res, 0, sim);

    // Every served artifact against a direct build of the same
    // request, on a compiler of the daemon's options.
    flow::CompileOptions co;
    co.effort = 1.0;
    co.seed = 1;
    flow::PldCompiler ref(dev, co);
    std::vector<flow::AppBuild> refBase;
    for (size_t a = 0; a < apps.size(); ++a) {
        refBase.push_back(ref.build(apps[a].graph, flow::OptLevel::O1));
        // The served base build is checked bit-identical to this one
        // just below, so its wirelength is the daemon's.
        res.wirelength += routedWirelength(refBase.back());
        if (svc::BuildArtifact::fromAppBuild(refBase.back()).encode() !=
            running->baseBlob[a])
            res.operationFailed("served base build of " + apps[a].name +
                                " differs from a direct build");
    }
    std::map<uint64_t, const std::vector<uint8_t> *> coldBlob;
    std::vector<const Sent *> cold;
    for (const Sent &s : sent) {
        ++res.attempted;
        ++res.opsDone;
        if (!s.ok)
            res.operationFailed("request for " + apps[s.app].name + "/" +
                                s.op + " was not served");
        else if (s.cold) {
            coldBlob[s.key] = &s.blob;
            cold.push_back(&s);
        }
    }
    for (size_t a = 0; a < apps.size(); ++a)
        coldBlob[running->baseKey[a]] = &running->baseBlob[a];
    for (const Sent &s : sent) {
        if (!s.ok || s.cold)
            continue;
        auto it = coldBlob.find(s.key);
        if (it == coldBlob.end() || *it->second != s.blob)
            res.operationFailed("warm reply for " + apps[s.app].name +
                                " differs from the first reply");
    }
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> mismatches{0};
    auto verify = [&] {
        for (size_t i; (i = next++) < cold.size();) {
            const Sent &s = *cold[i];
            ir::Graph g = svc::decodeGraphText(s.graphText);
            std::vector<uint8_t> want;
            if (s.kind == Sent::Compile) {
                want = svc::BuildArtifact::fromAppBuild(
                           ref.build(g, flow::OptLevel::O1))
                           .encode();
            } else {
                flow::SwapArtifact sa =
                    ref.buildSwapArtifact(g, s.op, refBase[s.app]);
                svc::SwapBlob sb;
                sb.op = sa.op;
                sb.fnChanged = sa.fnChanged;
                sb.binding = sa.binding;
                want = sb.encode();
            }
            if (want != s.blob)
                ++mismatches;
        }
    };
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < cpuCount(); ++i)
            threads.emplace_back(verify);
        for (auto &t : threads)
            t.join();
    }
    for (uint64_t i = 0; i < mismatches; ++i)
        res.operationFailed("served artifact differs from a direct "
                            "build of the same request");

    uint64_t coldCompiles = 0, coldSwaps = 0;
    for (const Sent *s : cold)
        (s->kind == Sent::Compile ? coldCompiles : coldSwaps)++;
    if (res.rounds > 0) {
        res.det["svc.cold_compiles_per_round"] =
            static_cast<double>(coldCompiles) / res.rounds;
        res.det["svc.swaps_per_round"] =
            static_cast<double>(coldSwaps) / res.rounds;
        res.det["svc.requests_per_round"] =
            static_cast<double>(sent.size()) / res.rounds;
    }
}

} // namespace perfbench
