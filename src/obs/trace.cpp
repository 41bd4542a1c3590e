#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>

#include "common/hash.h"
#include "common/logging.h"

namespace pld {
namespace obs {

namespace detail {

std::atomic<int> g_mode{-1};

namespace {
std::atomic<Tracer *> g_current{nullptr};
/** Bumped on every install so cached thread-local buffer pointers
 * from a previous tracer are never reused. */
std::atomic<uint64_t> g_epoch{0};
std::once_flag g_env_once;
std::unique_ptr<Tracer> g_env_tracer;

/** The swap itself, shared by install() and envInit(). Must not
 * touch g_env_once — envInit runs inside that call_once. */
Tracer *
installRaw(Tracer *t)
{
    Tracer *prev = g_current.exchange(t, std::memory_order_relaxed);
    g_epoch.fetch_add(1, std::memory_order_relaxed);
    g_mode.store(t != nullptr, std::memory_order_relaxed);
    return prev;
}

void
envInit()
{
    const char *trace = std::getenv("PLD_TRACE");
    const char *metrics = std::getenv("PLD_METRICS");
    if ((trace && *trace) || (metrics && *metrics)) {
        g_env_tracer = std::make_unique<Tracer>();
        if (trace && *trace)
            g_env_tracer->setTraceFile(trace);
        if (metrics && *metrics)
            g_env_tracer->setMetricsFile(metrics);
        installRaw(g_env_tracer.get());
        // Registered after g_env_tracer's construction, so this runs
        // before its destructor at exit.
        std::atexit([] {
            if (g_env_tracer)
                g_env_tracer->flushToFiles();
        });
    } else {
        g_mode.store(0, std::memory_order_relaxed);
    }
}
} // namespace

bool
slowActive()
{
    std::call_once(g_env_once, envInit);
    return g_mode.load(std::memory_order_relaxed) != 0;
}

} // namespace detail

namespace {

struct TlsRef
{
    Tracer *tracer = nullptr;
    uint64_t epoch = 0;
    EventBuffer *buf = nullptr;
};
thread_local TlsRef t_ref;

uint64_t
globalId(uint32_t buf_id, uint32_t idx)
{
    return (uint64_t(buf_id) + 1) << 32 | (uint64_t(idx) + 1);
}

std::string
fmtDoubleArg(double v)
{
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%.9g", v);
    return tmp;
}

} // namespace

Tracer::Tracer() : epoch(std::chrono::steady_clock::now()) {}

Tracer::~Tracer()
{
    // Never destroy the installed tracer out from under recorders.
    if (detail::g_current.load(std::memory_order_relaxed) == this)
        Tracer::install(nullptr);
}

Tracer *
Tracer::current()
{
    if (!active())
        return nullptr;
    return detail::g_current.load(std::memory_order_relaxed);
}

Tracer *
Tracer::install(Tracer *t)
{
    // Force the env check first so a later lazy check cannot clobber
    // a programmatic install.
    detail::slowActive();
    return detail::installRaw(t);
}

EventBuffer *
Tracer::buffer()
{
    uint64_t e = detail::g_epoch.load(std::memory_order_relaxed);
    if (t_ref.tracer != this || t_ref.epoch != e) {
        t_ref.buf = registerThread();
        t_ref.tracer = this;
        t_ref.epoch = e;
    }
    return t_ref.buf;
}

EventBuffer *
Tracer::registerThread()
{
    std::lock_guard<std::mutex> lk(bufMtx);
    buffers.push_back(std::make_unique<EventBuffer>());
    buffers.back()->id = static_cast<uint32_t>(buffers.size() - 1);
    return buffers.back().get();
}

std::vector<const Event *>
Tracer::allEvents() const
{
    std::lock_guard<std::mutex> lk(bufMtx);
    std::vector<const Event *> out;
    for (const auto &b : buffers) {
        for (const auto &ev : b->events)
            out.push_back(&ev);
    }
    return out;
}

uint64_t
currentSpan()
{
    Tracer *t = Tracer::current();
    if (!t)
        return 0;
    EventBuffer *b = t->buffer();
    if (b->stack.empty())
        return 0;
    return globalId(b->id, b->stack.back());
}

// ---- Span ----------------------------------------------------------

Span::Span(const char *cat, std::string name, uint64_t parent,
           bool structural)
{
    Tracer *t = Tracer::current();
    if (!t)
        return;
    tracer = t;
    buf = t->buffer();
    idx = static_cast<uint32_t>(buf->events.size());
    gid = globalId(buf->id, idx);

    Event ev;
    ev.ph = Phase::Span;
    ev.structural = structural;
    ev.open = true;
    ev.cat = cat;
    ev.name = std::move(name);
    ev.tsUs = t->nowUs();
    ev.id = gid;
    if (parent == kAutoParent) {
        ev.parent = buf->stack.empty()
                        ? 0
                        : globalId(buf->id, buf->stack.back());
    } else {
        ev.parent = parent;
    }
    buf->events.push_back(std::move(ev));
    buf->stack.push_back(idx);
}

Span::~Span()
{
    if (!buf)
        return;
    // If the tracer was swapped while this span was open (tests tear
    // a ScopedTracer down with live spans), the buffer may belong to
    // a dead tracer; the epoch check makes that case a no-op.
    if (t_ref.tracer != tracer ||
        t_ref.epoch != detail::g_epoch.load(std::memory_order_relaxed))
        return;
    Event &ev = buf->events[idx];
    ev.durUs = tracer->nowUs() - ev.tsUs;
    ev.open = false;
    if (!buf->stack.empty() && buf->stack.back() == idx)
        buf->stack.pop_back();
}

Span &
Span::arg(const char *key, const std::string &v)
{
    if (buf)
        buf->events[idx].args.push_back({key, v, true});
    return *this;
}

Span &
Span::arg(const char *key, const char *v)
{
    return arg(key, std::string(v));
}

Span &
Span::arg(const char *key, int64_t v)
{
    if (buf)
        buf->events[idx].args.push_back(
            {key, std::to_string(v), false});
    return *this;
}

Span &
Span::arg(const char *key, double v)
{
    if (buf)
        buf->events[idx].args.push_back({key, fmtDoubleArg(v), false});
    return *this;
}

// ---- instant / flow ------------------------------------------------

namespace {

EventRef
pointEvent(Phase ph, const char *cat, std::string name,
           uint64_t flow_id, bool structural)
{
    Tracer *t = Tracer::current();
    if (!t)
        return EventRef{};
    EventBuffer *b = t->buffer();
    uint32_t idx = static_cast<uint32_t>(b->events.size());
    Event ev;
    ev.ph = ph;
    ev.structural = structural;
    ev.cat = cat;
    ev.name = std::move(name);
    ev.tsUs = t->nowUs();
    ev.id = globalId(b->id, idx);
    ev.parent =
        b->stack.empty() ? 0 : globalId(b->id, b->stack.back());
    ev.flowId = flow_id;
    b->events.push_back(std::move(ev));
    return EventRef{b, idx};
}

} // namespace

EventRef
instant(const char *cat, std::string name, bool structural)
{
    return pointEvent(Phase::Instant, cat, std::move(name), 0,
                      structural);
}

EventRef
flowStart(const char *cat, std::string name, uint64_t flow_id)
{
    return pointEvent(Phase::FlowStart, cat, std::move(name), flow_id,
                      true);
}

EventRef
flowFinish(const char *cat, std::string name, uint64_t flow_id)
{
    return pointEvent(Phase::FlowFinish, cat, std::move(name),
                      flow_id, true);
}

EventRef &
EventRef::arg(const char *key, const std::string &v)
{
    if (buf)
        buf->events[idx].args.push_back({key, v, true});
    return *this;
}

EventRef &
EventRef::arg(const char *key, int64_t v)
{
    if (buf)
        buf->events[idx].args.push_back(
            {key, std::to_string(v), false});
    return *this;
}

EventRef &
EventRef::arg(const char *key, double v)
{
    if (buf)
        buf->events[idx].args.push_back({key, fmtDoubleArg(v), false});
    return *this;
}

// ---- metrics entry points ------------------------------------------

void
count(const std::string &name, int64_t delta)
{
    if (Tracer *t = Tracer::current())
        t->metrics().add(name, delta);
}

void
gauge(const std::string &name, double value)
{
    if (Tracer *t = Tracer::current())
        t->metrics().set(name, value);
}

void
record(const std::string &name, double value)
{
    if (Tracer *t = Tracer::current())
        t->metrics().record(name, value);
}

MetricsRegistry::Window
beginWindow()
{
    if (Tracer *t = Tracer::current())
        return t->metrics().beginWindow();
    return {};
}

MetricsSnapshot
endWindow(const MetricsRegistry::Window &w)
{
    if (Tracer *t = Tracer::current())
        return t->metrics().since(w);
    return {};
}

Tracer *
ensureProcessTracer()
{
    if (Tracer *t = Tracer::current())
        return t;
    static Tracer process_tracer;
    Tracer::install(&process_tracer);
    return &process_tracer;
}

// ---- structure hash ------------------------------------------------

/**
 * The hash walks the event forest bottom-up. Children are looked up
 * through non-structural ancestors so a structural span under a
 * "sched" lane still contributes — attached to the lane's own
 * structural parent.
 */
uint64_t
Tracer::structureHash() const
{
    std::vector<const Event *> events = allEvents();

    // id -> event
    std::map<uint64_t, const Event *> byId;
    for (const Event *e : events)
        byId[e->id] = e;

    // Resolve each event's nearest *structural* ancestor.
    auto structuralParent = [&](const Event *e) -> uint64_t {
        uint64_t p = e->parent;
        while (p != 0) {
            auto it = byId.find(p);
            if (it == byId.end())
                return 0;
            if (it->second->structural)
                return p;
            p = it->second->parent;
        }
        return 0;
    };

    std::map<uint64_t, std::vector<const Event *>> children;
    std::vector<const Event *> roots;
    for (const Event *e : events) {
        if (!e->structural)
            continue;
        uint64_t p = structuralParent(e);
        if (p == 0)
            roots.push_back(e);
        else
            children[p].push_back(e);
    }

    // Bottom-up Merkle hash; recursion depth == span nesting depth.
    std::function<uint64_t(const Event *)> hashNode =
        [&](const Event *e) -> uint64_t {
        Hasher h;
        h.u64(static_cast<uint64_t>(e->ph));
        h.str(e->cat);
        h.str(e->name);
        for (const auto &a : e->args) {
            h.str(a.key);
            h.str(a.val);
        }
        std::vector<uint64_t> kids;
        auto it = children.find(e->id);
        if (it != children.end()) {
            for (const Event *c : it->second)
                kids.push_back(hashNode(c));
        }
        std::sort(kids.begin(), kids.end());
        for (uint64_t k : kids)
            h.u64(k);
        return h.digest();
    };

    std::vector<uint64_t> top;
    for (const Event *r : roots)
        top.push_back(hashNode(r));
    std::sort(top.begin(), top.end());
    Hasher h;
    h.u64(top.size());
    for (uint64_t v : top)
        h.u64(v);
    return h.digest();
}

// ---- export --------------------------------------------------------

namespace {

void
jsonEscape(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char tmp[8];
                std::snprintf(tmp, sizeof(tmp), "\\u%04x", c);
                os << tmp;
            } else {
                os << c;
            }
        }
    }
}

void
writeArgs(std::ostream &os, const Event &e)
{
    os << "\"args\":{";
    for (size_t i = 0; i < e.args.size(); ++i) {
        if (i)
            os << ",";
        os << "\"";
        jsonEscape(os, e.args[i].key);
        os << "\":";
        if (e.args[i].quoted) {
            os << "\"";
            jsonEscape(os, e.args[i].val);
            os << "\"";
        } else {
            os << e.args[i].val;
        }
    }
    os << "}";
}

char
phaseChar(Phase ph, bool open)
{
    switch (ph) {
      case Phase::Span: return open ? 'B' : 'X';
      case Phase::Instant: return 'i';
      case Phase::FlowStart: return 's';
      case Phase::FlowFinish: return 'f';
    }
    return 'X';
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lk(bufMtx);
    os << "{\"traceEvents\":[";
    bool first = true;
    char num[64];
    for (const auto &b : buffers) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
           << "\"tid\":" << b->id + 1
           << ",\"args\":{\"name\":\"pld-" << b->id << "\"}}";
        for (const auto &e : b->events) {
            os << ",\n{\"name\":\"";
            jsonEscape(os, e.name);
            os << "\",\"cat\":\"";
            jsonEscape(os, e.cat);
            os << "\",\"ph\":\"" << phaseChar(e.ph, e.open)
               << "\",\"pid\":1,\"tid\":" << b->id + 1;
            std::snprintf(num, sizeof(num), "%.3f", e.tsUs);
            os << ",\"ts\":" << num;
            if (e.ph == Phase::Span && !e.open) {
                std::snprintf(num, sizeof(num), "%.3f", e.durUs);
                os << ",\"dur\":" << num;
            }
            // Logical parent links: a pool-thread span names the span
            // that awaited it, which its own thread's nesting cannot.
            if (e.ph == Phase::Span)
                os << ",\"span_id\":" << e.id
                   << ",\"parent_id\":" << e.parent;
            if (e.ph == Phase::Instant)
                os << ",\"s\":\"t\"";
            if (e.ph == Phase::FlowStart ||
                e.ph == Phase::FlowFinish)
                os << ",\"id\":" << e.flowId;
            os << ",";
            writeArgs(os, e);
            os << "}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
Tracer::writeMetricsJson(std::ostream &os) const
{
    MetricsSnapshot s = registry.snapshot();
    char hex[32];
    os << "{\n";
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(structureHash()));
    os << "  \"structure_hash\": \"" << hex << "\",\n";
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(s.countersHash()));
    os << "  \"counters_hash\": \"" << hex << "\",\n";
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[k, v] : s.counters) {
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, k);
        os << "\": " << v;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    char num[64];
    for (const auto &[k, v] : s.gauges) {
        std::snprintf(num, sizeof(num), "%.9g", v);
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, k);
        os << "\": " << num;
        first = false;
    }
    os << "\n  },\n  \"dists\": {";
    first = true;
    for (const auto &[k, d] : s.dists) {
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, k);
        os << "\": {\"count\": " << d.count;
        std::snprintf(num, sizeof(num), "%.9g", d.sum);
        os << ", \"sum\": " << num;
        std::snprintf(num, sizeof(num), "%.9g", d.min);
        os << ", \"min\": " << num;
        std::snprintf(num, sizeof(num), "%.9g", d.p50);
        os << ", \"p50\": " << num;
        std::snprintf(num, sizeof(num), "%.9g", d.p95);
        os << ", \"p95\": " << num;
        std::snprintf(num, sizeof(num), "%.9g", d.max);
        os << ", \"max\": " << num << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
Tracer::flushToFiles() const
{
    if (!tracePath.empty()) {
        std::ofstream f(tracePath);
        if (f) {
            writeChromeTrace(f);
        } else {
            pld_warn("PLD_TRACE: cannot write %s", tracePath.c_str());
        }
    }
    if (!metricsPath.empty()) {
        std::ofstream f(metricsPath);
        if (f) {
            writeMetricsJson(f);
        } else {
            pld_warn("PLD_METRICS: cannot write %s",
                     metricsPath.c_str());
        }
    }
}

} // namespace obs
} // namespace pld
