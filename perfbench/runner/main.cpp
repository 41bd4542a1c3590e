/**
 * pldbench: run one workload of the edit→compile→run benchmark.
 *
 *   pldbench --workload edit_hw|debug_sw|service|tenancy
 *            --seed N [--seconds S | --rounds N] [--pldd PATH]
 *            [--trace-dir DIR]
 *
 * Prints progress on stderr and one JSON object of raw samples as
 * the last line of stdout; exits 1 when a check failed.
 * perfbench/run.py is the user-facing entry point.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

void
Result::fail(const std::string &why)
{
    correct = false;
    errors.push_back(why);
}

void
Result::operationFailed(const std::string &why)
{
    correct = false;
    ++failed;
    // Keep the first few reasons; a fault that repeats every round
    // would otherwise flood the output.
    if (errors.size() < 8)
        errors.push_back("failed operation: " + why);
}

void
Result::knownFault(const std::string &why)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back("known fault: " + why);
}

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
    return 1;
}

double
peakRssMb(int pid)
{
    std::string path = pid > 0 ? "/proc/" + std::to_string(pid) +
                                     "/status"
                               : "/proc/self/status";
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

double
routedWirelength(const pld::flow::AppBuild &b)
{
    double total = 0;
    for (const auto &op : b.ops)
        if (op.target == pld::ir::Target::HW)
            total += static_cast<double>(op.pnr.routing.totalWirelength);
    return total;
}

void
renameEdit(pld::ir::OperatorFn &fn, pld::Rng &rng,
           const std::string &tag)
{
    if (fn.vars.empty())
        throw std::runtime_error("operator " + fn.name +
                                 " has no local variable to rename");
    auto &v = fn.vars[rng.below(fn.vars.size())];
    v.name += "_" + tag;
}

namespace {
volatile uint64_t calibrationSink;
} // namespace

void
calibrateHost(Result &res, bool force)
{
    if (!force && secondsSince(res.lastCalibration) < 1.0)
        return;
    constexpr uint32_t kTable = 1u << 14;
    std::vector<uint32_t> table(kTable);
    for (uint32_t i = 0; i < kTable; ++i)
        table[i] = (i * 2654435761u) >> 8;
    uint64_t x = 88172645463325252ull;
    uint64_t sum = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < 3000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint32_t a = x & (kTable - 1);
        uint32_t b = (x >> 24) & (kTable - 1);
        uint32_t d = table[a] > table[b] ? table[a] - table[b]
                                         : table[b] - table[a];
        if ((d & 7) < 3)
            std::swap(table[a], table[b]);
        sum += d;
    }
    res.samples["host.cal_s"].push_back(secondsSince(t0));
    calibrationSink = sum; // keeps the kernel from being optimised out
    res.lastCalibration = Clock::now();
}

void
noteRound(Result &res, uint64_t round, const std::string &key,
          double value, bool exact)
{
    if (round == 0) {
        res.det[key] = value;
        return;
    }
    double first = res.det[key];
    if (!exact) {
        res.det[key] = (first * static_cast<double>(round) + value) /
                       static_cast<double>(round + 1);
        return;
    }
    if (value != first)
        res.fail("round " + std::to_string(round) + ": " + key + " = " +
                 std::to_string(value) + ", round 0 had " +
                 std::to_string(first));
}

void
SimTotals::add(const pld::sys::RunStats &rs, double host_s,
               const pld::noc::NocStats &before)
{
    cycles += rs.cycles;
    linkCycles += rs.configCycles;
    runCycles.push_back(static_cast<double>(rs.cycles));
    runHostS.push_back(host_s);
    injected += rs.noc.injected - before.injected;
    delivered += rs.noc.delivered - before.delivered;
    deflections += rs.noc.deflections - before.deflections;
    hops += rs.noc.totalHops - before.totalHops;
}

void
noteSim(Result &res, uint64_t round, const SimTotals &t, bool exact)
{
    if (round == 0)
        res.simCyclesRound = t.cycles;
    auto &cyc = res.samples["sim.cycles"];
    cyc.insert(cyc.end(), t.runCycles.begin(), t.runCycles.end());
    auto &host = res.samples["sim.host_s"];
    host.insert(host.end(), t.runHostS.begin(), t.runHostS.end());
    const std::pair<const char *, uint64_t> figures[] = {
        {"sys.cycles", t.cycles},
        {"sys.link_cycles", t.linkCycles},
        {"sys.swap.cycles_total", t.swapCycles},
        {"noc.injected", t.injected},
        {"noc.delivered", t.delivered},
        {"noc.deflections", t.deflections},
        {"noc.hops", t.hops},
    };
    for (const auto &[key, value] : figures)
        noteRound(res, round, key, static_cast<double>(value), exact);
}

void
runLoop(const Options &opts, Result &res,
        const std::function<void(uint64_t)> &round)
{
    pld::obs::Tracer *tracer =
        pld::obs::active() ? pld::obs::Tracer::current() : nullptr;
    pld::obs::MetricsRegistry::Window window;
    if (tracer) {
        window = tracer->metrics().beginWindow();
        res.windowStartUs = tracer->nowUs();
    }
    auto t0 = Clock::now();
    for (uint64_t r = 0;; ++r) {
        calibrateHost(res);
        auto r0 = Clock::now();
        round(r);
        res.samples["round_s"].push_back(secondsSince(r0));
        if (r == 0)
            res.peakRssMb = peakRssMb();
        res.rounds = r + 1;
        if (opts.rounds ? res.rounds >= opts.rounds
                        : secondsSince(t0) >= opts.seconds)
            break;
    }
    if (tracer) {
        res.windowEndUs = tracer->nowUs();
        pld::obs::MetricsSnapshot s = tracer->metrics().since(window);
        for (const auto &[k, v] : s.counters)
            res.counters[k] = static_cast<double>(v);
        for (const auto &[k, d] : s.dists) {
            res.counters[k + ".count"] = static_cast<double>(d.count);
            res.counters[k + ".sum"] = d.sum;
        }
    }
}

} // namespace perfbench

namespace {

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: pldbench --workload NAME --seed N "
                 "[--seconds S | --rounds N]\n"
                 "                [--pldd PATH] [--trace-dir DIR]\n"
                 "workloads: edit_hw debug_sw service tenancy\n");
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string o = "[";
    for (size_t i = 0; i < v.size(); ++i)
        o += (i ? "," : "") + jsonNum(v[i]);
    return o + "]";
}

std::string
jsonMap(const std::map<std::string, double> &m)
{
    std::string o = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        o += (first ? "" : ",") + jsonStr(k) + ":" + jsonNum(v);
        first = false;
    }
    return o + "}";
}

std::string
toJson(const Options &opts, const Result &r)
{
    std::ostringstream os;
    os << "{\"workload\":" << jsonStr(opts.workload)
       << ",\"seed\":" << opts.seed << ",\"correct\":"
       << (r.correct ? "true" : "false")
       << ",\"attempted\":" << r.attempted
       << ",\"failed\":" << r.failed << ",\"rounds\":" << r.rounds
       << ",\"setup_s\":" << jsonList(r.setupS)
       << ",\"op_ms\":" << jsonList(r.opMs)
       << ",\"ops_done\":" << r.opsDone
       << ",\"sim_cycles_round\":" << r.simCyclesRound
       << ",\"wirelength\":" << jsonNum(r.wirelength)
       << ",\"peak_rss_mb\":" << jsonNum(r.peakRssMb)
       << ",\"layer\":" << jsonMap(r.layer) << ",\"samples\":{";
    bool first = true;
    for (const auto &[k, v] : r.samples) {
        os << (first ? "" : ",") << jsonStr(k) << ":" << jsonList(v);
        first = false;
    }
    os << "},\"det\":" << jsonMap(r.det)
       << ",\"counters\":" << jsonMap(r.counters)
       << ",\"window_us\":[" << jsonNum(r.windowStartUs) << ","
       << jsonNum(r.windowEndUs) << "],\"errors\":[";
    for (size_t i = 0; i < r.errors.size(); ++i)
        os << (i ? "," : "") << jsonStr(r.errors[i]);
    os << "]}";
    return os.str();
}

/**
 * Write every closed span the tracer holds, one JSON object per
 * line, with its logical parent: the Chrome export drops parent ids,
 * and without them a page compiled on a pool thread would count as
 * self time of the build that waits for it.
 */
void
dumpSpans(const std::string &path)
{
    pld::obs::Tracer *t = pld::obs::Tracer::current();
    if (!t)
        return;
    std::ofstream f(path);
    for (const pld::obs::Event *e : t->allEvents()) {
        if (e->ph != pld::obs::Phase::Span || e->open)
            continue;
        f << "{\"name\":" << jsonStr(e->name)
          << ",\"ts\":" << jsonNum(e->tsUs)
          << ",\"dur\":" << jsonNum(e->durUs) << ",\"id\":" << e->id
          << ",\"parent\":" << e->parent << "}\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 64;
        }
        const char *v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::atof(v);
        else if (a == "--rounds")
            opts.rounds = std::strtoull(v, nullptr, 10);
        else if (a == "--pldd")
            opts.pldd = v;
        else if (a == "--trace-dir")
            opts.traceDir = v;
        else {
            usage();
            return 64;
        }
    }

    Result res;
    try {
        if (opts.workload == "edit_hw")
            runEditHw(opts, res);
        else if (opts.workload == "debug_sw")
            runDebugSw(opts, res);
        else if (opts.workload == "service")
            runService(opts, res);
        else if (opts.workload == "tenancy")
            runTenancy(opts, res);
        else {
            usage();
            return 64;
        }
    } catch (const std::exception &e) {
        res.fail(std::string("exception: ") + e.what());
    }
    if (res.attempted == 0)
        res.fail("no operation was attempted");
    if (res.peakRssMb == 0)
        res.peakRssMb = peakRssMb();
    if (!opts.traceDir.empty())
        dumpSpans(opts.traceDir + "/bench.spans.jsonl");

    for (const auto &e : res.errors)
        std::fprintf(stderr, "pldbench: %s\n", e.c_str());
    std::printf("%s\n", toJson(opts, res).c_str());
    std::fflush(stdout);
    return res.correct ? 0 : 1;
}
