#include "pld/compiler.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "hls/resource_model.h"
#include "hls/synthesis.h"
#include "obs/trace.h"
#include "rvgen/codegen.h"

namespace pld {
namespace flow {

using fabric::Device;
using fabric::Rect;
using netlist::Netlist;
using netlist::ResourceCount;

const char *
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::O0: return "-O0";
      case OptLevel::O1: return "-O1";
      case OptLevel::O3: return "-O3";
      case OptLevel::Vitis: return "vitis";
    }
    return "?";
}

const char *
ladderStepName(LadderStep s)
{
    switch (s) {
      case LadderStep::Initial: return "initial";
      case LadderStep::EscalateEffort: return "escalate-effort";
      case LadderStep::FreshSeed: return "fresh-seed";
      case LadderStep::PromotePage: return "promote-page";
      case LadderStep::SoftcoreFallback: return "softcore-fallback";
    }
    return "?";
}

std::string
AttemptRecord::render() const
{
    std::ostringstream os;
    os << ladderStepName(step) << ": page " << page << " seed "
       << seed << " effort " << effort;
    if (routeIters > 0)
        os << " iters " << routeIters;
    os << " -> " << compileCodeName(outcome);
    if (fmaxMHz > 0)
        os << " (fmax " << fmaxMHz << " MHz";
    if (overusedTiles > 0)
        os << (fmaxMHz > 0 ? ", " : " (") << overusedTiles
           << " overused";
    if (fmaxMHz > 0 || overusedTiles > 0)
        os << ")";
    return os.str();
}

bool
BuildReport::allOk() const
{
    return failedCount() == 0 && buildStatus.ok();
}

int
BuildReport::degradedCount() const
{
    int n = 0;
    for (const auto &o : ops)
        n += o.degraded;
    return n;
}

int
BuildReport::failedCount() const
{
    int n = 0;
    for (const auto &o : ops)
        n += o.failed;
    return n;
}

std::string
BuildReport::render() const
{
    std::ostringstream os;
    os << "build report: " << ops.size() << " operators, "
       << degradedCount() << " degraded, " << failedCount()
       << " failed\n";
    for (const auto &o : ops) {
        os << "  " << o.op << ": ";
        if (o.failed)
            os << "FAILED (" << compileCodeName(o.finalCode) << ")";
        else if (o.degraded)
            os << "DEGRADED -> softcore fallback after "
               << o.attempts.size() - 1 << " failed attempts";
        else if (o.finalCode != CompileCode::Ok)
            os << "accepted with " << compileCodeName(o.finalCode);
        else
            os << "ok";
        if (o.fromCache)
            os << " (cached)";
        os << "\n";
        if (o.attempts.size() > 1 || o.degraded || o.failed) {
            for (const auto &a : o.attempts)
                os << "    " << a.render() << "\n";
        }
    }
    if (!buildStatus.diags.empty())
        os << buildStatus.render();
    return os.str();
}

PldCompiler::PldCompiler(const Device &dev, CompileOptions opts)
    : dev(dev), opts(std::move(opts))
{
    if (this->opts.faults.empty())
        this->opts.faults = FaultPlan::fromEnv();
    injector = FaultInjector(this->opts.faults);
    if (const char *t = std::getenv("PLD_RVGEN_TIER")) {
        std::string s(t);
        if (s == "O0" || s == "o0")
            this->opts.softcoreTier = rvgen::Tier::O0;
        else if (s == "Os" || s == "os" || s == "OS")
            this->opts.softcoreTier = rvgen::Tier::Os;
    }
}

void
PldCompiler::clearCache()
{
    {
        std::lock_guard<std::mutex> lk(cache_mtx);
        slots.clear();
    }
    cache_stats.hits = 0;
    cache_stats.misses = 0;
    cache_stats.compiles = 0;
    cache_stats.failures = 0;
    cache_stats.corrupt = 0;
}

namespace {

uint64_t
cacheKey(const ir::OperatorFn &fn, ir::Target target, int page_id,
         bool leaf_iface)
{
    Hasher h;
    h.u64(fn.contentHash());
    h.u64(static_cast<uint64_t>(target));
    h.i64(page_id);
    h.u64(leaf_iface ? 1 : 0);
    return h.digest();
}

/**
 * Content checksum over everything a cache hit hands back. Stored at
 * publish time and re-verified on every hit, so a corrupted entry is
 * detected and recompiled instead of silently poisoning a build.
 */
uint64_t
artifactChecksum(const OperatorArtifact &a)
{
    Hasher h;
    h.str(a.name);
    h.u64(a.irHash);
    h.u64(static_cast<uint64_t>(a.target));
    h.i64(a.page);
    h.u64(a.net.contentHash());
    h.u64(a.pnr.bits.hash);
    h.u64(a.pnr.bits.bytes);
    h.u64(a.elf.entry);
    h.u64(a.elf.memBytes);
    h.i64(a.elf.pageNum);
    if (!a.elf.text.empty())
        h.bytes(a.elf.text.data(), a.elf.text.size() * 4);
    if (!a.elf.data.empty())
        h.bytes(a.elf.data.data(), a.elf.data.size());
    return h.digest();
}

/** splitmix64 step: derive the fresh-seed rung's seed. */
uint64_t
deriveSeed(uint64_t seed)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** True when the artifact must not satisfy a lookup at @p effort:
 * it took the softcore fallback or closed with a non-Ok code, at a
 * lower effort than asked for — retry the full ladder instead. */
bool
degradedBelow(const OperatorArtifact &a, double effort)
{
    return (a.outcome.degraded ||
            a.outcome.finalCode != CompileCode::Ok) &&
           effort > a.effortUsed + 1e-12;
}

} // namespace

std::shared_ptr<const OperatorArtifact>
PldCompiler::cached(uint64_t key, double effort,
                    const CompileFn &compile, bool *hit)
{
    using Inflight = Coalescer<OperatorArtifact>;
    const auto served = [&](std::shared_ptr<const OperatorArtifact> a) {
        ++cache_stats.hits;
        obs::count("cache.hits");
        if (hit)
            *hit = true;
        return a;
    };
    for (;;) {
        if (inflight.enter(key) == Inflight::Role::Joined) {
            // Whether a lookup meets an in-flight compile is pure
            // scheduling, hence the sched. prefix.
            obs::count("sched.cache.waits");
            Inflight::WaitOutcome w = inflight.wait(key);
            if (!w.reclaimed) {
                uint64_t stored;
                {
                    std::lock_guard<std::mutex> lk(cache_mtx);
                    stored = slots[key].checksum;
                }
                if (artifactChecksum(*w.result) == stored &&
                    !degradedBelow(*w.result, effort))
                    return served(std::move(w.result));
                // Corrupt, or degraded below our effort: enter
                // again, so one claimant evicts and recompiles it.
                continue;
            }
            // The claimant failed and woke us: we claim it now.
        }
        Inflight::Sentinel sentinel(inflight, key);
        Slot cur;
        {
            std::lock_guard<std::mutex> lk(cache_mtx);
            cur = slots[key];
        }
        if (cur.art) {
            // Only a key's claimant writes its slot, so the copy is
            // checked outside the lock.
            if (artifactChecksum(*cur.art) != cur.checksum) {
                pld_warn("cache: corrupt artifact for %s (checksum "
                         "mismatch); recompiling",
                         cur.art->name.c_str());
                ++cache_stats.corrupt;
                obs::count("cache.corrupt");
                obs::instant("cache", "cache.corrupt_recompile")
                    .arg("op", cur.art->name);
            } else if (degradedBelow(*cur.art, effort)) {
                obs::count("cache.degraded_evictions");
            } else {
                inflight.publish(key, cur.art);
                sentinel.disarm();
                return served(std::move(cur.art));
            }
        }
        int gen;
        {
            std::lock_guard<std::mutex> lk(cache_mtx);
            Slot &s = slots[key];
            s.art = nullptr;
            gen = s.generation++;
        }
        ++cache_stats.misses;
        obs::count("cache.misses");

        std::shared_ptr<OperatorArtifact> art;
        try {
            art = compile(gen);
        } catch (...) {
            // The sentinel wakes one waiter to re-claim.
            ++cache_stats.failures;
            obs::count("cache.failures");
            throw;
        }
        uint64_t sum = artifactChecksum(*art);
        if (injector.fires(FaultKind::CacheCorrupt, art->name,
                           gen * kFaultAttemptStride)) {
            // Injected corruption: the stored checksum no longer
            // matches the artifact, exactly as a bit-rotted entry
            // would look.
            sum ^= 0xC0FFEEBADC0DEull;
        }
        {
            std::lock_guard<std::mutex> lk(cache_mtx);
            Slot &s = slots[key];
            s.art = art;
            s.checksum = sum;
        }
        ++cache_stats.compiles;
        obs::count("cache.compiles");
        inflight.publish(key, art);
        sentinel.disarm();
        if (hit)
            *hit = false;
        return art;
    }
}

std::shared_ptr<OperatorArtifact>
PldCompiler::attemptHw(const ir::OperatorFn &fn, int page_id,
                       uint64_t seed, double effort, int route_iters,
                       int fault_attempt)
{
    auto art = std::make_shared<OperatorArtifact>();
    art->name = fn.name;
    art->irHash = fn.contentHash();
    art->target = ir::Target::HW;
    art->page = page_id;
    art->effortUsed = effort;

    // Stage times are this thread's CPU time: the own-node compile
    // cost Table 2 models. Wall clocks here would double-charge
    // operators whenever parallel page compiles timeshare cores.
    ThreadCpuStopwatch stage;

    // hls stage.
    auto hr = hls::compileOperator(fn, /*leaf_interface=*/true);
    art->net = std::move(hr.net);
    art->perf = hr.perf;
    art->outcome.status.merge(hr.status);
    art->times.hls = stage.seconds();
    obs::record("pld.stage.hls.seconds", art->times.hls);

    // syn stage.
    stage.reset();
    hls::synthesize(art->net, effort);
    art->times.syn = stage.seconds();
    obs::record("pld.stage.syn.seconds", art->times.syn);

    // p&r into the page under the abstract shell.
    pnr::PnrOptions popts;
    popts.effort = effort;
    popts.seed = seed;
    popts.abstractShell = true;
    popts.threads = opts.pnrThreads;
    popts.placeRestarts = opts.pnrRestarts;
    popts.routeMaxIters = route_iters;
    popts.requiredFmaxMHz = opts.overlayClockMHz;
    popts.injectRouteFail =
        injector.fires(FaultKind::RouteFail, fn.name, fault_attempt);
    popts.injectFmaxDerate =
        injector.fires(FaultKind::TimingMiss, fn.name, fault_attempt)
            ? 0.4
            : 1.0;
    const Rect &region = dev.pages[page_id].rect;
    art->pnr = pnr::placeAndRoute(art->net, dev, region, popts);
    // CPU split from the engine, for the same reason as above; the
    // abstract-shell context load is serial and tiny.
    art->times.pnr =
        art->pnr.placeCpuSeconds + art->pnr.routeCpuSeconds +
        art->pnr.contextSeconds;
    art->times.bitgen = art->pnr.bitgenSeconds;
    obs::record("pld.stage.pnr.seconds", art->times.pnr);
    obs::record("pld.stage.bitgen.seconds", art->times.bitgen);
    return art;
}

std::shared_ptr<OperatorArtifact>
PldCompiler::compileHwLadder(const ir::OperatorFn &fn, int page_id,
                             int promo_page, double effort,
                             int generation)
{
    const int base = generation * kFaultAttemptStride;
    if (injector.fires(FaultKind::CompileThrow, fn.name, base)) {
        Diagnostic d;
        d.code = CompileCode::CompileException;
        d.stage = CompileStage::Hls;
        d.severity = DiagSeverity::Error;
        d.op = fn.name;
        d.page = page_id;
        d.retriable = true;
        d.detail = "injected mid-compile exception";
        throw CompileError(std::move(d));
    }

    OperatorOutcome outcome;
    outcome.op = fn.name;

    LadderStep step = LadderStep::Initial;
    int page = page_id;
    uint64_t seed = opts.seed;
    double eff = effort;
    int iters = pnr::PnrOptions{}.routeMaxIters;
    StageTimes spent; // CPU burned on failed attempts

    for (int attempt = 0;; ++attempt) {
        obs::count(std::string("ladder.attempts.") +
                   ladderStepName(step));
        if (step == LadderStep::SoftcoreFallback) {
            obs::count("ladder.degraded");
            obs::count("ladder.healed_at.softcore-fallback");
            // The paper's mixed mode (Sec 6.2): softcore-map this
            // one operator onto its page's overlay core; the rest of
            // the app stays on hardware pages.
            auto art = compileSoftcore(fn, page_id, generation);
            art->effortUsed = effort;
            AttemptRecord rec;
            rec.step = step;
            rec.page = page_id;
            rec.seed = seed;
            rec.effort = eff;
            rec.outcome = CompileCode::Ok;
            outcome.attempts.push_back(rec);
            outcome.degraded = true;
            outcome.finalCode = CompileCode::Ok;
            Diagnostic d;
            d.code = outcome.status.firstError();
            d.stage = CompileStage::Route;
            d.severity = DiagSeverity::Warning;
            d.op = fn.name;
            d.page = page_id;
            d.detail = detail::format(
                "degraded to softcore (-%s mixed mode) after %zu "
                "failed hardware attempts",
                rvgen::tierName(art->softcoreTier),
                outcome.attempts.size() - 1);
            pld_warn("%s: %s", fn.name.c_str(), d.detail.c_str());
            outcome.status.add(std::move(d));
            art->outcome = std::move(outcome);
            art->times += spent;
            return art;
        }

        obs::Span att("pld", "pld.attempt");
        att.arg("step", ladderStepName(step));
        att.arg("page", static_cast<int64_t>(page));
        auto art = attemptHw(fn, page, seed, eff, iters,
                             base + attempt);
        att.arg("outcome",
                compileCodeName(art->pnr.status.firstError()));
        // HLS warnings are identical across attempts; keep one copy.
        if (attempt == 0)
            outcome.status.merge(art->outcome.status);
        AttemptRecord rec;
        rec.step = step;
        rec.page = page;
        rec.seed = seed;
        rec.effort = eff;
        rec.routeIters = iters;
        rec.outcome = art->pnr.status.firstError();
        rec.fmaxMHz = art->pnr.timing.fmaxMHz;
        rec.overusedTiles = art->pnr.routing.overusedTiles;
        outcome.attempts.push_back(rec);
        outcome.status.merge(art->pnr.status);

        if (art->pnr.success) {
            obs::count(std::string("ladder.healed_at.") +
                       ladderStepName(step));
            outcome.finalCode = CompileCode::Ok;
            art->outcome = std::move(outcome);
            art->times += spent;
            return art;
        }
        spent += art->times;

        CompileCode failure = art->pnr.status.firstError();
        if (failure == CompileCode::TimingMiss &&
            art->pnr.routing.feasible) {
            // Timing ladder: escalate effort, then a fresh seed,
            // then accept the slow page with a warning — the overlay
            // clock simply derates to the achieved Fmax. A softcore
            // would be slower still, so it is never the answer to a
            // timing miss.
            switch (step) {
              case LadderStep::Initial:
                step = LadderStep::EscalateEffort;
                eff *= 2;
                break;
              case LadderStep::EscalateEffort:
                step = LadderStep::FreshSeed;
                seed = deriveSeed(seed);
                break;
              default: {
                obs::count("ladder.timing_accepted");
                outcome.finalCode = CompileCode::TimingMiss;
                Diagnostic d;
                d.code = CompileCode::TimingMiss;
                d.stage = CompileStage::Timing;
                d.severity = DiagSeverity::Warning;
                d.op = fn.name;
                d.page = page;
                d.detail = detail::format(
                    "accepted at %.1f MHz below the %.1f MHz "
                    "overlay clock after %zu attempts; overlay "
                    "clock derated",
                    art->pnr.timing.fmaxMHz, opts.overlayClockMHz,
                    outcome.attempts.size());
                pld_warn("%s: %s", fn.name.c_str(),
                         d.detail.c_str());
                outcome.status.add(std::move(d));
                art->outcome = std::move(outcome);
                art->times += spent;
                return art;
              }
            }
        } else {
            // Routing (or combined) ladder: more negotiation
            // iterations and effort, a fresh placement seed, the
            // reserved larger page, and finally the softcore.
            switch (step) {
              case LadderStep::Initial:
                step = LadderStep::EscalateEffort;
                eff *= 2;
                iters *= 4;
                break;
              case LadderStep::EscalateEffort:
                step = LadderStep::FreshSeed;
                seed = deriveSeed(seed);
                break;
              case LadderStep::FreshSeed:
                if (promo_page >= 0) {
                    step = LadderStep::PromotePage;
                    page = promo_page;
                } else {
                    step = LadderStep::SoftcoreFallback;
                }
                break;
              default:
                step = LadderStep::SoftcoreFallback;
                break;
            }
        }
    }
}

std::shared_ptr<OperatorArtifact>
PldCompiler::compileSoftcore(const ir::OperatorFn &fn, int page_id,
                             int generation)
{
    if (injector.fires(FaultKind::CompileThrow, fn.name,
                       generation * kFaultAttemptStride)) {
        Diagnostic d;
        d.code = CompileCode::CompileException;
        d.stage = CompileStage::Hls;
        d.severity = DiagSeverity::Error;
        d.op = fn.name;
        d.page = page_id;
        d.retriable = true;
        d.detail = "injected mid-compile exception";
        throw CompileError(std::move(d));
    }
    auto art = std::make_shared<OperatorArtifact>();
    art->name = fn.name;
    art->irHash = fn.contentHash();
    art->target = ir::Target::RISCV;
    art->page = page_id;
    art->effortUsed = opts.effort;
    art->outcome.op = fn.name;
    art->outcome.attempts.push_back(
        AttemptRecord{LadderStep::Initial, page_id, opts.seed, 0, 0,
                      CompileCode::Ok, 0, 0});
    ThreadCpuStopwatch stage;
    obs::Span span("pld", "rvgen.compile");
    span.arg("op", fn.name);
    obs::count("rvgen.compiles");
    rvgen::RvOptions ro;
    ro.tier = opts.softcoreTier;
    rvgen::RvResult rv;
    if (ro.tier == rvgen::Tier::Os) {
        try {
            rv = rvgen::compileToRiscv(fn, ro);
        } catch (const std::runtime_error &) {
            // -Os capacity limit (text or memory budget): retry at
            // the paper-faithful baseline so mixed mode still always
            // completes.
            obs::count("rvgen.tier.fallback");
            ro.tier = rvgen::Tier::O0;
            rv = rvgen::compileToRiscv(fn, ro);
        }
    } else {
        rv = rvgen::compileToRiscv(fn, ro);
    }
    obs::count(std::string("rvgen.tier.") + rvgen::tierName(rv.tier));
    obs::record("rvgen.instructions", double(rv.instructions));
    if (rv.tier == rvgen::Tier::Os)
        obs::record("rvgen.spills", double(rv.spills));
    span.arg("tier", rvgen::tierName(rv.tier));
    art->softcoreTier = rv.tier;
    art->elf = std::move(rv.elf);
    art->elf.pageNum = page_id;
    // The whole -O0 path is the "riscv g++" column of Table 2;
    // CPU-clocked like the HW stages so parallel compiles don't
    // inflate it.
    art->times.hls = stage.seconds();
    return art;
}

PldCompiler::PagePlan
PldCompiler::assignPages(const ir::Graph &g, OptLevel level) const
{
    PagePlan plan;
    plan.page.assign(g.ops.size(), -1);
    plan.promo.assign(g.ops.size(), -1);
    if (level == OptLevel::O3 || level == OptLevel::Vitis) {
        // Monolithic flows ignore pages entirely.
        for (size_t oi = 0; oi < g.ops.size(); ++oi)
            plan.page[oi] = static_cast<int>(oi);
        return plan;
    }
    std::vector<int> &assignment = plan.page;
    std::vector<bool> page_taken(dev.pages.size(), false);

    // Lazily estimated per-operator resources, shared between the
    // first-fit pass and promotion reservation below.
    std::vector<ResourceCount> need(g.ops.size());
    std::vector<bool> have_need(g.ops.size(), false);
    auto needOf = [&](size_t oi) -> const ResourceCount & {
        if (!have_need[oi]) {
            auto hr = hls::compileOperator(g.ops[oi].fn, true);
            need[oi] = hr.net.resources();
            have_need[oi] = true;
        }
        return need[oi];
    };

    // Honour explicit pragma placements first (Fig 2a: p_num).
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        int want = g.ops[oi].fn.pragma.pageNum;
        if (want >= 0) {
            pld_assert(want < static_cast<int>(dev.pages.size()),
                       "%s: pragma requests page %d of %zu",
                       g.ops[oi].fn.name.c_str(), want,
                       dev.pages.size());
            pld_assert(!page_taken[want],
                       "page %d requested by two operators", want);
            assignment[oi] = want;
            page_taken[want] = true;
        }
    }

    // First-fit the rest by estimated resources.
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        if (assignment[oi] >= 0)
            continue;
        ResourceCount est;
        if (level != OptLevel::O0 &&
            g.ops[oi].fn.pragma.target == ir::Target::HW) {
            est = needOf(oi);
        }
        int chosen = -1;
        for (size_t pi = 0; pi < dev.pages.size(); ++pi) {
            if (page_taken[pi])
                continue;
            if (dev.pages[pi].res.covers(est)) {
                chosen = static_cast<int>(pi);
                break;
            }
        }
        pld_assert(chosen >= 0,
                   "%s does not fit any free page — decompose it "
                   "into smaller operators (Sec 4.1)",
                   g.ops[oi].fn.name.c_str());
        assignment[oi] = chosen;
        page_taken[chosen] = true;
    }

    // Reserve a promotion target per HW operator: the first free
    // page with strictly more LUTs than the assigned page that still
    // covers the operator's estimated resources. Reservations happen
    // here, in operator index order, before any compile starts — so
    // the PromotePage rung is a pure function of the graph and
    // device, never of which operator happens to fail first under
    // parallel compilation. Unused reservations cost nothing.
    if (level == OptLevel::O1) {
        for (size_t oi = 0; oi < g.ops.size(); ++oi) {
            if (g.ops[oi].fn.pragma.target != ir::Target::HW)
                continue;
            const ResourceCount &cur =
                dev.pages[assignment[oi]].res;
            for (size_t pi = 0; pi < dev.pages.size(); ++pi) {
                if (page_taken[pi])
                    continue;
                const ResourceCount &cand = dev.pages[pi].res;
                if (cand.luts > cur.luts &&
                    cand.covers(needOf(oi))) {
                    plan.promo[oi] = static_cast<int>(pi);
                    page_taken[pi] = true;
                    break;
                }
            }
        }
    }
    return plan;
}

AppBuild
PldCompiler::build(const ir::Graph &g, OptLevel level,
                   double effort_override)
{
    AppBuild out;
    out.level = level;
    out.dfg = ir::extractDfg(g);
    const double eff =
        effort_override > 0 ? effort_override : opts.effort;

    auto window = obs::beginWindow();
    obs::Span build_span("pld", "pld.build");
    build_span.arg("level", optLevelName(level));
    build_span.arg("ops", static_cast<int64_t>(g.ops.size()));
    obs::count("pld.builds");

    PagePlan plan = assignPages(g, level);
    const std::vector<int> &page_of = plan.page;

    bool monolithic =
        (level == OptLevel::O3 || level == OptLevel::Vitis);

    // ---- per-operator compilation (parallel, cached) -------------
    // Each operator writes only its own out.ops slot; cache traffic
    // goes through cached(), which never holds a lock across a
    // compile, so nested parallelism (pages x P&R threads) composes
    // through the shared ThreadBudget. A compile that throws wakes
    // any waiters inside cached(); the catch blocks here turn the
    // exception into a failed OperatorOutcome instead of letting it
    // escape into the thread pool.
    out.ops.resize(g.ops.size());
    // Per-op spans parent to the build span by token: pool workers'
    // own span stacks are empty (or stale), and lease grants vary
    // with load, so auto-parenting would be scheduling-dependent.
    uint64_t build_tok = obs::currentSpan();
    auto compile_one = [&](size_t oi) {
        const auto &fn = g.ops[oi].fn;
        obs::Span op_span("pld", "pld.op", build_tok);
        op_span.arg("op", fn.name);
        op_span.arg("page", static_cast<int64_t>(page_of[oi]));
        ir::Target tgt;
        if (level == OptLevel::O0)
            tgt = ir::Target::RISCV;
        else if (monolithic)
            tgt = ir::Target::HW;
        else
            tgt = fn.pragma.target;

        try {
            bool hit = false;
            if (monolithic) {
                // Bare kernel netlist for stitching; the monolithic
                // p&r happens below.
                OperatorArtifact &art = out.ops[oi];
                art.name = fn.name;
                art.irHash = fn.contentHash();
                art.target = ir::Target::HW;
                ThreadCpuStopwatch stage;
                auto hr = hls::compileOperator(fn, false);
                art.net = std::move(hr.net);
                art.perf = hr.perf;
                art.outcome.status.merge(hr.status);
                art.times.hls = stage.seconds();
                art.page = page_of[oi];
            } else {
                out.ops[oi] = *cached(
                    cacheKey(fn, tgt, page_of[oi], true), eff,
                    [&](int gen) {
                        return tgt == ir::Target::HW
                                   ? compileHwLadder(fn, page_of[oi],
                                                     plan.promo[oi],
                                                     eff, gen)
                                   : compileSoftcore(fn, page_of[oi],
                                                     gen);
                    },
                    &hit);
            }
            out.ops[oi].fromCache = hit;
            if (hit) {
                // Which thread wins the compile-vs-wait race for a
                // shared key is scheduling, so the per-op hit marker
                // is non-structural; the counter totals above are
                // still deterministic.
                obs::instant("sched", "cache.hit",
                             /*structural=*/false)
                    .arg("op", fn.name);
            }
        } catch (const CompileError &ce) {
            OperatorOutcome bad;
            bad.op = fn.name;
            bad.failed = true;
            bad.finalCode = ce.diag().code;
            bad.status.add(ce.diag());
            out.ops[oi] = OperatorArtifact{};
            out.ops[oi].name = fn.name;
            out.ops[oi].page = page_of[oi];
            out.ops[oi].outcome = std::move(bad);
        } catch (const std::exception &e) {
            Diagnostic d;
            d.code = CompileCode::CompileException;
            d.stage = CompileStage::Hls;
            d.severity = DiagSeverity::Error;
            d.op = fn.name;
            d.page = page_of[oi];
            d.retriable = true;
            d.detail = e.what();
            OperatorOutcome bad;
            bad.op = fn.name;
            bad.failed = true;
            bad.finalCode = CompileCode::CompileException;
            bad.status.add(std::move(d));
            out.ops[oi] = OperatorArtifact{};
            out.ops[oi].name = fn.name;
            out.ops[oi].page = page_of[oi];
            out.ops[oi].outcome = std::move(bad);
        }
    };
    {
        unsigned want = opts.parallelJobs ? opts.parallelJobs
                                          : ThreadBudget::total();
        BudgetLease lease(want);
        if (lease.count() == 0 || g.ops.size() <= 1) {
            for (size_t oi = 0; oi < g.ops.size(); ++oi)
                compile_one(oi);
        } else {
            ThreadPool pool(lease.count());
            for (size_t oi = 0; oi < g.ops.size(); ++oi)
                pool.submit([&compile_one, oi] { compile_one(oi); });
            pool.wait();
        }
    }

    for (const auto &art : out.ops) {
        if (!art.fromCache && !art.outcome.failed)
            obs::record("pld.page.seconds", art.times.total());
        if (!art.fromCache)
            out.cpuTimes += art.times;
        StageTimes wall = art.fromCache ? StageTimes{} : art.times;
        out.wallTimes.maxWith(wall);
        OperatorOutcome oc = art.outcome;
        if (oc.op.empty())
            oc.op = art.name;
        oc.fromCache = art.fromCache;
        out.report.ops.push_back(std::move(oc));
    }

    // ---- monolithic stitch + p&r (O3 / Vitis) ---------------------
    if (monolithic) {
        obs::Span stitch_span("pld", "pld.stitch");
        Stopwatch syn_sw;
        Netlist mono;
        std::vector<int> cell_off(g.ops.size(), 0);
        for (size_t oi = 0; oi < g.ops.size(); ++oi) {
            cell_off[oi] = mono.merge(out.ops[oi].net,
                                      g.ops[oi].instName + "/");
        }
        // Stitch links. O3 inserts pipelined FIFO glue (Sec 6.3);
        // Vitis wires operators directly (long unpipelined nets).
        for (size_t li = 0; li < g.links.size(); ++li) {
            const auto &l = g.links[li];
            if (l.src.isExternal() || l.dst.isExternal())
                continue;
            int src_cell = cell_off[l.src.op];
            int dst_cell = cell_off[l.dst.op];
            if (level == OptLevel::O3) {
                int brams = hls::bramsFor(l.depth, 32);
                int fifo_first = -1;
                for (int b = 0; b < brams; ++b) {
                    netlist::Cell c;
                    c.site = netlist::SiteKind::Bram;
                    c.name = "link" + std::to_string(li) + "_fifo" +
                             std::to_string(b);
                    c.level = 1;
                    int idx = mono.addCell(std::move(c));
                    if (fifo_first < 0)
                        fifo_first = idx;
                }
                netlist::Cell glue;
                glue.site = netlist::SiteKind::Clb;
                glue.name = "link" + std::to_string(li) + "_ctl";
                glue.luts = 6;
                glue.ffs = 12;
                glue.level = 1;
                int ctl = mono.addCell(std::move(glue));
                int n1 = mono.addNet(
                    "link" + std::to_string(li) + "_in", 32,
                    src_cell);
                mono.addSink(n1, fifo_first);
                mono.addSink(n1, ctl);
                int n2 = mono.addNet(
                    "link" + std::to_string(li) + "_out", 32,
                    fifo_first);
                mono.addSink(n2, dst_cell);
                mono.nets[n1].pipelined = true;
                mono.nets[n2].pipelined = true;
            } else {
                int n1 = mono.addNet(
                    "xlink" + std::to_string(li), 32, src_cell);
                mono.addSink(n1, dst_cell);
            }
        }
        auto sr = hls::synthesize(mono, eff);
        stitch_span.arg("cells",
                        static_cast<int64_t>(mono.cells.size()));
        out.wallTimes.syn += syn_sw.seconds();
        out.cpuTimes.syn += sr.seconds;

        pnr::PnrOptions popts;
        popts.effort = eff;
        popts.seed = opts.seed;
        popts.abstractShell = false; // full-context monolithic run
        popts.threads = opts.pnrThreads;
        popts.placeRestarts = opts.pnrRestarts;
        Rect user{0, 0, 120, 576};
        out.monoPnr = pnr::placeAndRoute(mono, dev, user, popts);
        // Monolithic failures have no page ladder to climb; surface
        // them as build-level diagnostics nobody can miss.
        out.report.buildStatus.merge(out.monoPnr.status);
        out.monoNet = std::move(mono);
        // The monolithic run happens after the page pool is done, so
        // its wall time is uncontended and honest; CPU totals use the
        // engine's per-thread busy split.
        out.wallTimes.pnr += out.monoPnr.placeSeconds +
                             out.monoPnr.routeSeconds +
                             out.monoPnr.contextSeconds;
        out.cpuTimes.pnr += out.monoPnr.placeCpuSeconds +
                            out.monoPnr.routeCpuSeconds +
                            out.monoPnr.contextSeconds;
        out.wallTimes.bitgen += out.monoPnr.bitgenSeconds;
        out.cpuTimes.bitgen += out.monoPnr.bitgenSeconds;
        out.totalBitstreamBytes = out.monoPnr.bits.bytes;
        out.area = out.monoNet.resources();
        out.fmaxMHz = out.monoPnr.timing.fmaxMHz;
    } else {
        // Overlay designs: area is the sum over pages; Fmax is the
        // 200 MHz overlay clock (never above page timing).
        double fmax = opts.overlayClockMHz;
        for (auto &art : out.ops) {
            if (art.outcome.failed)
                continue;
            if (art.target == ir::Target::HW) {
                out.area += art.net.resources();
                out.totalBitstreamBytes += art.pnr.bits.bytes;
                fmax = std::min(fmax, art.pnr.timing.fmaxMHz);
            } else {
                // A softcore page occupies the full page's resources
                // (the one-size-fits-all processor, Sec 7.5).
                out.area += ResourceCount{
                    2000, 1500,
                    static_cast<int64_t>(
                        (art.elf.memBytes + 16 * 1024 - 1) /
                        (16 * 1024) * 8),
                    4};
                out.totalBitstreamBytes += art.elf.footprintBytes();
            }
        }
        out.fmaxMHz = fmax;
    }
    out.pagesUsed = static_cast<int>(g.ops.size());

    // ---- runtime bindings ----------------------------------------
    out.sysCfg = sys::SystemConfig{};
    out.sysCfg.useNoc = !monolithic;
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        sys::PageBinding b;
        b.opIdx = static_cast<int>(oi);
        // Non-monolithic bindings follow the artifact's actual page:
        // a promoted operator runs on its promotion target, not the
        // page the first-fit plan chose.
        b.pageId = monolithic ? static_cast<int>(oi)
                              : out.ops[oi].page;
        if (out.ops[oi].target == ir::Target::RISCV) {
            b.impl = sys::PageImpl::Softcore;
            b.elf = out.ops[oi].elf;
        } else {
            b.impl = sys::PageImpl::Hw;
            b.cyclesPerOp = out.ops[oi].perf.cyclesPerOp();
        }
        if (!monolithic) {
            // Partial-image metadata for the hot-swap runtime: how
            // many CRC-framed config packets a reconfiguration of
            // this page streams, and the content hash seeding them.
            b.imageBytes = b.impl == sys::PageImpl::Softcore
                               ? out.ops[oi].elf.footprintBytes()
                               : out.ops[oi].pnr.bits.bytes;
            b.imageHash = artifactChecksum(out.ops[oi]);
        }
        out.bindings.push_back(std::move(b));
    }

    // Stage-time gauges for the benches, then the per-build snapshot
    // AppBuild::report carries. Gauges describe the *latest* build;
    // the snapshot is this build's delta.
    obs::gauge("pld.wall.hls", out.wallTimes.hls);
    obs::gauge("pld.wall.syn", out.wallTimes.syn);
    obs::gauge("pld.wall.pnr", out.wallTimes.pnr);
    obs::gauge("pld.wall.bitgen", out.wallTimes.bitgen);
    obs::gauge("pld.cpu.hls", out.cpuTimes.hls);
    obs::gauge("pld.cpu.syn", out.cpuTimes.syn);
    obs::gauge("pld.cpu.pnr", out.cpuTimes.pnr);
    obs::gauge("pld.cpu.bitgen", out.cpuTimes.bitgen);
    out.report.metrics = obs::endWindow(window);
    return out;
}

SwapArtifact
PldCompiler::buildSwapArtifact(const ir::Graph &g,
                               const std::string &op,
                               const AppBuild &base)
{
    obs::Span span("pld", "pld.swap_artifact");
    span.arg("op", op);
    obs::count("pld.swap_artifacts");

    int oi = -1;
    for (size_t i = 0; i < g.ops.size(); ++i) {
        if (g.ops[i].fn.name == op) {
            oi = static_cast<int>(i);
            break;
        }
    }
    pld_assert(oi >= 0, "buildSwapArtifact: no operator named %s",
               op.c_str());
    pld_assert(base.bindings.size() == g.ops.size(),
               "buildSwapArtifact: base build has %zu operators, the "
               "edited graph %zu — hot swap needs a matching shape",
               base.bindings.size(), g.ops.size());
    pld_assert(base.sysCfg.useNoc,
               "buildSwapArtifact: monolithic builds have no pages "
               "to swap");
    const auto &fn = g.ops[static_cast<size_t>(oi)].fn;
    const sys::PageBinding &cur =
        base.bindings[static_cast<size_t>(oi)];

    SwapArtifact sa;
    sa.op = op;
    sa.fn = fn;
    sa.fnChanged =
        base.ops[static_cast<size_t>(oi)].irHash != fn.contentHash();

    ir::Target tgt = base.level == OptLevel::O0 ? ir::Target::RISCV
                                                : fn.pragma.target;
    // The page the operator currently occupies in the running system
    // (which may be its promotion target, not the planned page).
    int page_id = cur.pageId;

    // Recompile — or cache-hit, for an unchanged operator — pinned
    // to the current page: promo = -1, because a hot swap must not
    // relocate the page out from under the running system.
    auto art = cached(
        cacheKey(fn, tgt, page_id, true), opts.effort,
        [&](int gen) {
            return tgt == ir::Target::HW
                       ? compileHwLadder(fn, page_id, /*promo_page=*/-1,
                                         opts.effort, gen)
                       : compileSoftcore(fn, page_id, gen);
        },
        &sa.fromCache);
    sa.outcome = art->outcome;

    sys::PageBinding nb;
    nb.opIdx = oi;
    nb.pageId = page_id;
    if (art->target == ir::Target::RISCV) {
        nb.impl = sys::PageImpl::Softcore;
        nb.elf = art->elf;
        nb.imageBytes = art->elf.footprintBytes();
    } else {
        nb.impl = sys::PageImpl::Hw;
        nb.cyclesPerOp = art->perf.cyclesPerOp();
        nb.imageBytes = art->pnr.bits.bytes;
    }
    nb.imageHash = artifactChecksum(*art);

    // Quarantine fallback: the -O0 softcore image of the same
    // function, cached like any other artifact.
    std::shared_ptr<const OperatorArtifact> fb = art;
    if (art->target != ir::Target::RISCV) {
        fb = cached(cacheKey(fn, ir::Target::RISCV, page_id, true),
                    opts.effort, [&](int gen) {
                        return compileSoftcore(fn, page_id, gen);
                    });
    }
    nb.hasFallback = true;
    nb.fallbackElf = fb->elf;
    sa.binding = std::move(nb);
    return sa;
}

TenantPack
PldCompiler::packTenantApps(const std::vector<TenantAppRef> &apps)
{
    obs::Span span("pld", "pld.pack_tenants");
    span.arg("apps", static_cast<int64_t>(apps.size()));
    TenantPack pack;
    const int grid = static_cast<int>(dev.pages.size());

    for (const auto &app : apps) {
        const auto reject = [&](std::string why) {
            Diagnostic d;
            d.code = CompileCode::AdmissionRejected;
            d.stage = CompileStage::Tenancy;
            d.severity = DiagSeverity::Error;
            d.op = app.name;
            d.detail = std::move(why);
            obs::count("pld.pack.rejected");
            pack.status.diags.push_back(std::move(d));
        };

        if (app.name.empty()) {
            reject("tenant name is empty");
            continue;
        }
        if (app.name.find('/') != std::string::npos ||
            app.name.find('*') != std::string::npos) {
            reject("tenant name '" + app.name +
                   "' may not contain '/' or '*' (it scopes fault "
                   "sites)");
            continue;
        }
        bool dup = false;
        for (const auto &s : pack.specs)
            dup |= s.name == app.name;
        if (dup) {
            reject("duplicate tenant name '" + app.name + "'");
            continue;
        }
        if (!app.graph || !app.build) {
            reject("tenant '" + app.name +
                   "' is missing its graph or build");
            continue;
        }
        if (!app.build->sysCfg.useNoc) {
            reject("tenant '" + app.name +
                   "' is a monolithic build (-O3/Vitis): no pages "
                   "to time-share; compile at -O0/-O1");
            continue;
        }
        if (app.build->bindings.empty()) {
            reject("tenant '" + app.name + "' has no page bindings");
            continue;
        }
        if (app.build->bindings.size() > static_cast<size_t>(grid)) {
            reject("tenant '" + app.name + "' needs " +
                   std::to_string(app.build->bindings.size()) +
                   " pages but the fabric has " +
                   std::to_string(grid));
            continue;
        }
        if (app.build->report.failedCount() > 0) {
            reject("tenant '" + app.name + "' has " +
                   std::to_string(app.build->report.failedCount()) +
                   " failed operator compile(s)");
            continue;
        }

        sys::TenantSpec spec;
        spec.name = app.name;
        spec.graph = app.graph;
        spec.bindings = app.build->bindings;
        spec.sysCfg = app.build->sysCfg;

        // Guarantee a quarantine fallback on every binding: the
        // fault-contained scheduler depends on a hostile page being
        // pinnable to a softcore image of the same function. The
        // on-demand compile goes through the cache like any other;
        // if it throws, cached() wakes any concurrent build waiting
        // on the key and the tenant is rejected here.
        bool fallbacks_ok = true;
        for (auto &b : spec.bindings) {
            if (b.hasFallback)
                continue;
            if (b.impl == sys::PageImpl::Softcore) {
                // The page image already IS the -O0 binary.
                b.hasFallback = true;
                b.fallbackElf = b.elf;
                continue;
            }
            const ir::OperatorFn &fn =
                app.graph->ops[static_cast<size_t>(b.opIdx)].fn;
            std::shared_ptr<const OperatorArtifact> fb;
            try {
                fb = cached(
                    cacheKey(fn, ir::Target::RISCV, b.pageId, true),
                    opts.effort, [&](int gen) {
                        return compileSoftcore(fn, b.pageId, gen);
                    });
            } catch (const CompileError &ce) {
                reject("tenant '" + app.name +
                       "' fallback compile failed for operator '" +
                       fn.name + "': " + ce.diag().render());
                fallbacks_ok = false;
                break;
            }
            b.hasFallback = true;
            b.fallbackElf = fb->elf;
        }
        if (!fallbacks_ok)
            continue;

        int npages = static_cast<int>(spec.bindings.size());
        pack.maxPages = std::max(pack.maxPages, npages);
        pack.totalPages += npages;
        pack.specs.push_back(std::move(spec));
        obs::count("pld.pack.tenants");
    }
    span.arg("packed", static_cast<int64_t>(pack.specs.size()));
    return pack;
}

} // namespace flow
} // namespace pld
