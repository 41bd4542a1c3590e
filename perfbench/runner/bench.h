/**
 * @file
 * Shared pieces of the edit→compile→run benchmark runner.
 *
 * pldbench runs one workload for a time budget (or a fixed number
 * of rounds), times the calls into each layer from outside with a
 * monotonic clock, checks every output against a reference made
 * apart from the compiler, and prints one JSON object of raw samples
 * on its last stdout line. perfbench/run.py turns the samples into
 * the benchmark's metrics (medians, rates) and, in a traced run,
 * adds the per-layer figures from PLD_TRACE / PLD_METRICS.
 *
 * A round is a fixed set of operations whose composition never
 * depends on the seed; the seed only picks order and edit content.
 * A run always ends on a round boundary, so every run attempts whole
 * rounds and the share of failed operations is the same in every
 * run.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ir/operator_fn.h"
#include "pld/compiler.h"
#include "sys/system.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** Fixed round count instead of a time budget (0 = use seconds);
     * the determinism check uses it so two runs do the same work. */
    uint64_t rounds = 0;
    /** pldd binary (service workload). */
    std::string pldd;
    /** Where a traced run writes its span dump and the daemon's
     * PLD_TRACE / PLD_METRICS files; empty = untraced run. */
    std::string traceDir;
};

/** Set-ups per run; setup_s is their median, the last one is kept
 * for the timed loop. */
constexpr int kSetups = 7;

using Clock = std::chrono::steady_clock;

/** Everything one run measured, as raw samples. */
struct Result
{
    std::vector<double> setupS;
    /** Host latency of each unit operation of the timed loop. */
    std::vector<double> opMs;
    uint64_t opsDone = 0;
    uint64_t rounds = 0;

    /** Simulated cycles of the first round (sim_cycles). */
    uint64_t simCyclesRound = 0;

    /** Routed wirelength in tile-segments (wirelength): the pages
     * one round recompiles in edit_hw, the base builds the loop runs
     * on in the other workloads. */
    double wirelength = 0;

    /** Peak resident set after a fixed amount of work (the first
     * round; in service the daemon's after a fixed later round), so
     * the figure does not grow with the rounds a fast host fits into
     * the time budget. */
    double peakRssMb = 0;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False once any check failed: an output that differs from its
     * reference, a broken invariant or a figure that does not repeat.
     * Only knownFault() counts a failure and leaves it true. */
    bool correct = true;
    std::vector<std::string> errors;

    /** The daemon's request counters over the timed loop, from its
     * stats reply (service). */
    std::map<std::string, double> layer;
    /** Named sample sets reduced to medians by run.py. */
    std::map<std::string, std::vector<double>> samples;
    /** Simulated quantities and counts that must repeat exactly
     * across runs and thread counts (per round). */
    std::map<std::string, double> det;
    /** Program counters over the timed loop (traced runs only). */
    std::map<std::string, double> counters;
    /** Timed-loop window on the tracer clock (traced runs only). */
    double windowStartUs = 0;
    double windowEndUs = 0;
    /** When calibrateHost() last ran. */
    Clock::time_point lastCalibration{};

    /** A check outside any one operation failed. */
    void fail(const std::string &why);
    /** An operation's output differs from its reference. */
    void operationFailed(const std::string &why);
    /**
     * An operation failed in the one way the benchmark expects: a
     * named fault of the program that fails the same operations in
     * every round, whatever the seed (debug_sw, README "Known failing
     * operation"). It counts in `failed`; `correct` speaks of the
     * operations that did not fail and stays true.
     */
    void knownFault(const std::string &why);
};

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Time a fixed calibration kernel (integer arithmetic, data-dependent
 * branches and swaps on a 64 KB table, like the annealer and the
 * simulator) into res.samples["host.cal_s"], at most once a second
 * unless @p force. It runs while the program is idle, between
 * operations, and tracks how fast the shared host runs right now;
 * run.py scales host times by it (see README "Noise").
 */
void calibrateHost(Result &res, bool force = false);

/** CPUs this process may run on (what `nproc` prints). */
int cpuCount();

/** Peak resident set of process @p pid (0 = self) in MB. */
double peakRssMb(int pid = 0);

/** Routed wirelength of every HW page of @p b, in tile-segments. */
double routedWirelength(const pld::flow::AppBuild &b);

/**
 * The benchmark's edit: rename one local variable of @p fn to a
 * name carrying @p tag. Statements address variables by index, so
 * the function, its netlist and its schedule are unchanged, but the
 * content hash is new and the compiler must rebuild the operator.
 */
void renameEdit(pld::ir::OperatorFn &fn, pld::Rng &rng,
                const std::string &tag);

/**
 * Run @p setup (called with the set-up index) kSetups times, timing
 * each into res.setupS, and return the last one's state. The
 * previous state is destroyed before the next set-up starts.
 */
template <class F>
auto
repeatSetup(Result &res, F setup) -> decltype(setup(0))
{
    decltype(setup(0)) state;
    calibrateHost(res, true);
    for (int i = 0; i < kSetups; ++i) {
        state = {};
        auto t0 = Clock::now();
        state = setup(i);
        res.setupS.push_back(secondsSince(t0));
    }
    return state;
}

/**
 * The timed loop: @p round is called with the round index until the
 * time budget or the round count is used up, always finishing the
 * round it is in. It records each round's duration and the peak
 * resident set after round 0. In a traced run it also captures the
 * program's counters and the tracer-clock window of the loop.
 */
void runLoop(const Options &opts, Result &res,
             const std::function<void(uint64_t)> &round);

/**
 * Record a per-round figure. When @p exact, round 0 sets
 * res.det[@p key] and every later round must match it; otherwise
 * res.det[@p key] is the mean over the rounds so far, for figures
 * that depend on the order of the round's operations (a deterministic
 * function of the seed, but not the same every round).
 */
void noteRound(Result &res, uint64_t round, const std::string &key,
               double value, bool exact = true);

/** Simulated work of one round. */
struct SimTotals
{
    uint64_t cycles = 0;
    uint64_t linkCycles = 0;
    uint64_t injected = 0;
    uint64_t delivered = 0;
    uint64_t deflections = 0;
    uint64_t hops = 0;
    /** Live page swaps (drain, stream, activate). */
    uint64_t swapCycles = 0;
    /** Simulated cycles and host seconds of each run. */
    std::vector<double> runCycles;
    std::vector<double> runHostS;

    /** Add one run. RunStats::noc counts from the SystemSim's
     * construction, so a sim that runs many times passes the NoC
     * totals of its previous run in @p before. */
    void add(const pld::sys::RunStats &rs, double host_s,
             const pld::noc::NocStats &before = {});
};

/**
 * Record a round's simulation (see noteRound for @p exact). A
 * SystemSim that lives across rounds carries NoC state from one run
 * to the next and attributes a swap's traffic to the run after it,
 * so its figures depend on the order of the round.
 */
void noteSim(Result &res, uint64_t round, const SimTotals &t,
             bool exact = true);

/** Deterministic Fisher-Yates shuffle driven by @p rng. */
template <class T>
void
shuffle(std::vector<T> &v, pld::Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// Workloads.
void runEditHw(const Options &opts, Result &res);
void runDebugSw(const Options &opts, Result &res);
void runService(const Options &opts, Result &res);
void runTenancy(const Options &opts, Result &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
