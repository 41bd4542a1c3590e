/**
 * @file
 * pldtrace: python-free validator for the observability subsystem.
 *
 *   pldtrace --check t.json          # validate Chrome trace JSON
 *   pldtrace --hash m.json           # print determinism fingerprint
 *   pldtrace --selftest-overhead     # tracing-on vs -off compile cost
 *
 * --check exits 0 iff the file parses as trace-event JSON, every
 * "B" has a matching "E" (complete "X" events pass trivially), and
 * every span's logical parent ("parent_id") is a span in the file;
 * CI runs it on the traced smoke app. --hash prints the structure hash
 * plus the sorted deterministic counters from a PLD_METRICS dump, so
 * CI can diff the PLD_THREADS=1 and =4 fingerprints with `diff`.
 * --selftest-overhead compiles a small app repeatedly with tracing
 * disabled then enabled and fails when the median enabled time
 * exceeds the disabled median by more than the budget (default 10%).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "ir/builder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "pld/compiler.h"

using namespace pld;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: pldtrace <mode> [args]\n"
        "  --check <trace.json>      validate Chrome trace-event "
        "JSON\n"
        "  --hash <metrics.json>     print the determinism "
        "fingerprint\n"
        "  --selftest-overhead [pct] compile with tracing off vs on; "
        "fail if\n"
        "                            overhead exceeds pct (default "
        "10)\n");
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return true;
}

int
runCheck(const std::string &path)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "pldtrace: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    obs::json::Value doc;
    std::string err;
    if (!obs::json::parse(text, doc, err)) {
        std::fprintf(stderr, "pldtrace: %s: JSON parse error: %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    if (!obs::json::checkChromeTrace(doc, err)) {
        std::fprintf(stderr, "pldtrace: %s: invalid trace: %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    size_t n = doc.get("traceEvents")->arr.size();
    std::printf("pldtrace: %s: OK (%zu events)\n", path.c_str(), n);
    return 0;
}

int
runHash(const std::string &path)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "pldtrace: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    obs::json::Value doc;
    std::string err;
    if (!obs::json::parse(text, doc, err)) {
        std::fprintf(stderr, "pldtrace: %s: JSON parse error: %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    const obs::json::Value *hash = doc.get("structure_hash");
    if (!hash || hash->type != obs::json::Type::Str) {
        std::fprintf(stderr,
                     "pldtrace: %s: missing structure_hash\n",
                     path.c_str());
        return 1;
    }
    std::printf("structure_hash %s\n", hash->str.c_str());
    const obs::json::Value *counters = doc.get("counters");
    if (counters && counters->type == obs::json::Type::Obj) {
        // Objects keep keys sorted (std::map), so this output diffs
        // cleanly across runs. sched.* counters are scheduling-
        // dependent by contract; skip them.
        for (const auto &[k, v] : counters->obj) {
            if (obs::isSchedName(k))
                continue;
            std::printf("counter %s %lld\n", k.c_str(),
                        static_cast<long long>(v.num));
        }
    }
    return 0;
}

// ---- --selftest-overhead -------------------------------------------

ir::Graph
makeSmokeApp()
{
    using namespace pld::ir;
    constexpr Type kFx = Type::fx(32, 17);
    auto make_op = [&](const char *name, const char *in_name,
                       const char *out_name, double mul) {
        OpBuilder b(name);
        auto in = b.input(in_name);
        auto out = b.output(out_name);
        auto x = b.var("x", kFx);
        b.pragma(Target::HW);
        b.forLoop(0, 64, [&](Ex) {
            b.set(x, b.read(in).bitcast(kFx));
            b.write(out, (Ex(x) * litF(mul, kFx)).cast(kFx));
        });
        return b.finish();
    };
    GraphBuilder gb("pldtrace-smoke");
    auto in = gb.extIn("Input_1");
    auto out = gb.extOut("Output_1");
    auto mid = gb.wire();
    gb.inst(make_op("scale", "Input_1", "mid", 1.5), {in}, {mid});
    gb.inst(make_op("offset", "mid", "Output_1", 0.5), {mid}, {out});
    return gb.finish();
}

double
medianCompileSeconds(const ir::Graph &app, const fabric::Device &dev,
                     int reps)
{
    std::vector<double> secs;
    for (int i = 0; i < reps; ++i) {
        // Fresh compiler per rep: a warm artifact cache would turn
        // later reps into lookups and hide the compile cost.
        flow::PldCompiler pc(dev);
        auto t0 = std::chrono::steady_clock::now();
        pc.build(app, flow::OptLevel::O1);
        secs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    std::sort(secs.begin(), secs.end());
    return secs[secs.size() / 2];
}

int
runOverheadSelftest(double budget_pct)
{
    ir::Graph app = makeSmokeApp();
    fabric::Device dev = fabric::makeU50();

    // Warm-up rep (page tables, allocator) outside both timings.
    {
        flow::PldCompiler pc(dev);
        pc.build(app, flow::OptLevel::O1);
    }

    const int reps = 9;
    obs::Tracer *prev = obs::Tracer::install(nullptr);
    double off = medianCompileSeconds(app, dev, reps);

    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    double on = medianCompileSeconds(app, dev, reps);
    obs::Tracer::install(prev);

    double pct = off > 0 ? (on - off) / off * 100.0 : 0.0;
    std::printf("pldtrace: overhead selftest: disabled %.6fs, "
                "enabled %.6fs, overhead %.2f%% (budget %.1f%%)\n",
                off, on, pct, budget_pct);
    if (pct > budget_pct) {
        std::fprintf(stderr,
                     "pldtrace: tracing overhead %.2f%% exceeds "
                     "budget %.1f%%\n",
                     pct, budget_pct);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string mode = argv[1];
    if (mode == "--check" && argc == 3)
        return runCheck(argv[2]);
    if (mode == "--hash" && argc == 3)
        return runHash(argv[2]);
    if (mode == "--selftest-overhead") {
        double budget = 10.0;
        if (argc == 3)
            budget = std::atof(argv[2]);
        return runOverheadSelftest(budget);
    }
    usage();
    return 2;
}
