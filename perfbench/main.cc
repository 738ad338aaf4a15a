/**
 * @file
 * nectar_bench: the repository benchmark program (see README.md).
 *
 *   nectar_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--size full|smoke] [--git-sha SHA]
 *
 * Single thread, one sequential sim::EventQueue per run.  Set-up time
 * is sampled cold: each sample builds the workload once in a child
 * forked before any run, and exits.  The timed loop then rebuilds and
 * reruns the workload on one seed, at least twice and while another
 * run still fits in --seconds of host time; host metrics are medians
 * over those repetitions and modeled metrics must repeat exactly.
 * --trace 1 adds one traced run of the same seed (per-layer counters
 * per simulated-time slice, delivery oracle attached, spans written as
 * Chrome trace-event JSON next to the binary) and outside-in timings
 * of single layer calls.  The last line of stdout is the result
 * object; exit status is 0 when every check passed, 1 on a correctness
 * or validity failure, 2 on a usage error and 3 when the build may not
 * report host timings.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cab/checksum.hh"
#include "fault/oracle.hh"
#include "sim/stats.hh"
#include "topo/topofile.hh"
#include "workloads.hh"

// ----- allocation counting ------------------------------------------
//
// Every global operator new in this binary counts one allocation; the
// benchmark reads the count around the event loop (sim.allocs_per_op).

namespace {
std::uint64_t allocCount = 0;

void *
countedAlloc(std::size_t n)
{
    ++allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++allocCount;
    auto a = static_cast<std::size_t>(al);
    std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++allocCount;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++allocCount;
    return std::malloc(n ? n : 1);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace nectar::perfbench;
using namespace nectar;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----- options --------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Seed whose modeled metrics the traced mode reports beside
     *  --seed's, for checking a claim on a seed not used to make it. */
    std::uint64_t heldoutSeed = 90001;
    double seconds = 10;
    bool trace = false;
    Size size = Size::full;
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "nectar_bench: %s\n"
                 "usage: nectar_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                    [--size full|smoke] "
                 "[--git-sha SHA]\n"
                 "workloads: rpc-fabric16 bulk-star allreduce-fabric16\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + s + "'");
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseUint(a, value());
        } else if (a == "--seconds") {
            const char *v = value();
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (end == v || *end || !(o.seconds >= 0) ||
                o.seconds > 3600)
                usage("--seconds expects 0..3600");
        } else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            o.trace = v == "1";
        } else if (a == "--size") {
            std::string v = value();
            if (v != "full" && v != "smoke")
                usage("--size expects full or smoke");
            o.size = v == "full" ? Size::full : Size::smoke;
        } else if (a == "--git-sha") {
            o.gitSha = value();
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (std::find(workloadNames.begin(), workloadNames.end(),
                  o.workload) == workloadNames.end())
        usage("unknown workload '" + o.workload + "'");
    if (o.heldoutSeed == o.seed)
        ++o.heldoutSeed;
    return o;
}

// ----- statistics -----------------------------------------------------

/** Minimum, median and quartiles; the quartiles by the exclusive
 *  method of Python's statistics.quantiles(values, n=4). */
struct Summary
{
    double min = 0, median = 0, q1 = 0, q3 = 0;
    std::size_t n = 0;
};

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    auto at = [&](double p) {
        // Position p*(n+1), 1-based, clamped to the sample range.
        double pos = p * static_cast<double>(v.size() + 1);
        if (pos <= 1)
            return v.front();
        if (pos >= static_cast<double>(v.size()))
            return v.back();
        auto lo = static_cast<std::size_t>(pos);
        double frac = pos - static_cast<double>(lo);
        return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
    };
    s.min = v.front();
    s.q1 = at(0.25);
    s.median = at(0.5);
    s.q3 = at(0.75);
    return s;
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

// ----- JSON output ------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A flat JSON object built in insertion order. */
class Json
{
  public:
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body += (body.empty() ? "" : ", ") + quote(k) + ": " + v;
        return *this;
    }
    Json &put(const std::string &k, double v) { return raw(k, num(v)); }
    Json &
    put(const std::string &k, const std::string &v)
    {
        return raw(k, quote(v));
    }
    Json &
    put(const std::string &k, const Json &v)
    {
        return raw(k, v.str());
    }
    std::string str() const { return "{" + body + "}"; }

  private:
    std::string body;
};

// ----- one run --------------------------------------------------------

/** A metric value with its unit, in report order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Spans recorded in memory and written out as Chrome trace JSON. */
class Tracer
{
  public:
    Tracer() : origin(Clock::now()) {}

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin)
            .count();
    }

    void
    span(const std::string &name, const std::string &cat,
         double startUs, double endUs, Json args = {})
    {
        events.push_back(Json()
                             .put("name", name)
                             .put("cat", cat)
                             .put("ph", std::string("X"))
                             .put("ts", startUs)
                             .put("dur", endUs - startUs)
                             .put("pid", 1)
                             .put("tid", 1)
                             .put("args", args)
                             .str());
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream f(path);
        f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < events.size(); ++i)
            f << events[i] << (i + 1 < events.size() ? ",\n" : "\n");
        f << "]}\n";
        return static_cast<bool>(f);
    }

  private:
    Clock::time_point origin;
    std::vector<std::string> events;
};

/** Everything one run of a scenario produced. */
struct Run
{
    Outcome out;
    SetupPhases phases;
    double loopS = 0;       ///< wall time inside the event loop
    LayerCounters ctr;
    std::uint64_t allocs = 0;      ///< operator new calls in the loop
    std::uint64_t copiedBytes = 0; ///< sim::copyStats during the loop
    std::size_t poolNodes = 0;
    double routeNs = 0;     ///< traced run: timed directory lookups
};

Json
countersJson(const LayerCounters &a, const LayerCounters &b)
{
    // Deltas b - a of the counters a slice of simulated time moved.
    auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(y - x);
    };
    return Json()
        .put("events", d(a.events, b.events))
        .put("transport_packets", d(a.tpPackets, b.tpPackets))
        .put("transport_acks", d(a.tpAcks, b.tpAcks))
        .put("transport_retx", d(a.tpRetx, b.tpRetx))
        .put("hub_forwards", d(a.hubForwards, b.hubForwards))
        .put("cab_tx_packets", d(a.cabTxPackets, b.cabTxPackets))
        .put("cabos_switches", d(a.switches, b.switches))
        .put("wire_bytes", d(a.wireBytes, b.wireBytes));
}

/** Keeps timed results observable so the calls are not elided. */
volatile std::uint64_t sink = 0;

/** Time NetworkDirectory::route over every ordered pair of sites. */
void
timeRoutes(Scenario &sc, Run &r)
{
    auto &sys = sc.system();
    auto &dir = sys.directory();
    const std::size_t n = sys.siteCount();
    std::uint64_t calls = 0, hops = 0;
    auto t0 = Clock::now();
    for (int pass = 0; pass < 5; ++pass)
        for (std::size_t a = 0; a < n; ++a)
            for (std::size_t b = 0; b < n; ++b)
                if (a != b) {
                    hops += dir.route(sys.site(a).address,
                                      sys.site(b).address)
                                .size();
                    ++calls;
                }
    r.routeNs = secondsSince(t0) * 1e9 / static_cast<double>(calls);
    sink = sink + hops;
}

Run
runOnce(const Options &opt, std::uint64_t seed, Tracer *tracer)
{
    Run r;
    // Declared before the scenario, which holds pointers to it.
    fault::DeliveryOracle oracle;
    double s0 = tracer ? tracer->nowUs() : 0;
    auto sc = makeScenario(opt.workload, seed, opt.size);
    r.phases = sc->phases();
    if (tracer) {
        double t = s0;
        for (auto [name, len] :
             {std::pair{"setup.topo_load", r.phases.topoLoad},
              std::pair{"setup.nectarine_build", r.phases.build},
              std::pair{"setup.workload", r.phases.workload}}) {
            tracer->span(name, "setup", t, t + len * 1e6);
            t += len * 1e6;
        }
        tracer->span("setup", "setup", s0, tracer->nowUs(),
                     Json().put("seed", static_cast<double>(seed)));
    }

    if (tracer)
        sc->attachOracle(oracle);

    sim::EventQueue &eq = sc->eventq();
    const std::uint64_t a0 = allocCount;
    const std::uint64_t c0 = sim::copyStats().bytesCopied;
    auto l0 = Clock::now();
    if (!tracer) {
        eq.run();
    } else {
        // Fixed simulated-time slices: host time, events fired and
        // per-layer counter deltas per slice.  runUntil is
        // trace-neutral, so the fired sequence equals eq.run()'s.
        LayerCounters before = sc->counters();
        sim::Tick until = 0;
        while (!eq.empty()) {
            until += sc->traceSlice();
            double h0 = tracer->nowUs();
            eq.runUntil(until);
            LayerCounters after = sc->counters();
            tracer->span("sim.slice", "sim", h0, tracer->nowUs(),
                         countersJson(before, after)
                             .put("sim_end_us",
                                  static_cast<double>(until) / 1e3));
            before = after;
        }
    }
    r.loopS = secondsSince(l0);
    r.allocs = allocCount - a0;
    r.copiedBytes = sim::copyStats().bytesCopied - c0;

    r.out = sc->finish();
    r.out.model.events = eq.executedCount();
    r.out.model.fingerprint = eq.fingerprint();
    r.ctr = sc->counters();
    r.poolNodes = eq.poolSize();
    if (tracer) {
        oracle.finish();
        for (const auto &v : oracle.violations())
            r.out.errors.push_back("delivery oracle: " + v);
        double h0 = tracer->nowUs();
        timeRoutes(*sc, r);
        tracer->span("probe.route", "layer", h0, tracer->nowUs(),
                     Json().put("ns_per_call", r.routeNs));
    }
    return r;
}

/** One cold set-up sample: total host seconds and its phases. */
struct ColdSetup
{
    double total = 0;
    SetupPhases phases;
};

/**
 * Build the workload once in a child forked from this process while
 * it is still small, and return the child's set-up time.  Each sample
 * pays the page faults and heap growth of a fresh invocation instead
 * of reusing memory an earlier run in this process freed.
 */
bool
coldSetup(const Options &opt, ColdSetup &out)
{
    int fd[2];
    if (pipe(fd) != 0)
        return false;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fd[0]);
        ColdSetup c;
        auto t0 = Clock::now();
        auto sc = makeScenario(opt.workload, opt.seed, opt.size);
        c.total = secondsSince(t0);
        c.phases = sc->phases();
        const bool ok = write(fd[1], &c, sizeof c) == sizeof c;
        _exit(ok ? 0 : 1); // skips tearing the scenario down
    }
    close(fd[1]);
    const bool got =
        pid > 0 && read(fd[0], &out, sizeof out) == sizeof out;
    close(fd[0]);
    int status = 0;
    if (pid > 0)
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ----- outside-in layer timings ----------------------------------------

struct LayerTimings
{
    double topoLoadS = 0;     ///< loadTopologyFile, isolated
    double checksumMtuNs = 0; ///< cab::checksum16 over one MTU
    double histRecordNs = 0;  ///< sim::Histogram::record
    double histMergeUs = 0;   ///< sim::Histogram::merge of two
    double eventNs = 0;       ///< EventQueue schedule + fire
};

template <typename F>
double
timeEach(std::uint64_t n, F &&f)
{
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        f(i);
    return secondsSince(t0) * 1e9 / static_cast<double>(n);
}

LayerTimings
timeLayers(const Options &opt, Tracer &tracer)
{
    LayerTimings t;
    auto probe = [&](const char *name, auto &&f) {
        double h0 = tracer.nowUs();
        double v = f();
        tracer.span(name, "layer", h0, tracer.nowUs(),
                    Json().put("value", v));
        return v;
    };
    t.topoLoadS = probe("probe.topo_load", [&] {
        std::vector<double> v;
        for (int i = 0; i < 5; ++i) {
            auto t0 = Clock::now();
            auto d = topo::loadTopologyFile(fabric16File);
            sink = sink + d.hubs.size();
            v.push_back(secondsSince(t0));
        }
        return summarize(v).median;
    });
    t.checksumMtuNs = probe("probe.checksum_mtu", [&] {
        std::vector<std::uint8_t> mtu(896);
        for (std::size_t i = 0; i < mtu.size(); ++i)
            mtu[i] = static_cast<std::uint8_t>(i * 131 + opt.seed);
        double ns = timeEach(200'000, [&](std::uint64_t i) {
            mtu[i % mtu.size()] ^= 1;
            sink = sink + cab::checksum16(mtu);
        });
        return ns;
    });
    t.histRecordNs = probe("probe.histogram_record", [&] {
        sim::Histogram h;
        double ns = timeEach(1'000'000, [&](std::uint64_t i) {
            h.record(static_cast<double>(1000 + (i * 7919) % 1'000'000));
        });
        sink = sink + h.count();
        return ns;
    });
    t.histMergeUs = probe("probe.histogram_merge", [&] {
        sim::Histogram a, b;
        for (int i = 0; i < 10'000; ++i)
            b.record(static_cast<double>(100 + i * 37));
        return timeEach(2'000, [&](std::uint64_t) { a.merge(b); }) /
               1e3;
    });
    t.eventNs = probe("probe.event_schedule_fire", [&] {
        // 256 self-rescheduling chains with short, varied delays: a
        // small pending set like the workloads', not one huge heap.
        sim::EventQueue eq;
        constexpr std::uint64_t n = 1'000'000;
        std::uint64_t fired = 0;
        struct Chain
        {
            sim::EventQueue &eq;
            std::uint64_t &fired;
            std::uint64_t k;
            void
            operator()()
            {
                if (++fired < n)
                    eq.scheduleIn(static_cast<sim::Tick>(
                                      1 + (fired * 7919 + k) % 2000),
                                  Chain{eq, fired, k});
            }
        };
        auto t0 = Clock::now();
        for (std::uint64_t k = 0; k < 256; ++k)
            eq.schedule(static_cast<sim::Tick>(k), Chain{eq, fired, k});
        eq.run();
        sink = sink + fired;
        return secondsSince(t0) * 1e9 / static_cast<double>(
                                            eq.executedCount());
    });
    return t;
}

// ----- report -----------------------------------------------------------

std::string
fixed(double v, int prec = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

/** Peak resident set of this process (MB). */
double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
extra(const Outcome &o, const std::string &name)
{
    for (const auto &[k, v] : o.extras)
        if (k == name)
            return v;
    return 0;
}

Json
modelJson(const ModelResult &m, std::uint64_t seed)
{
    return Json()
        .put("seed", static_cast<double>(seed))
        .put("p50_us", m.p50Us)
        .put("p99_us", m.p99Us)
        .put("samples", static_cast<double>(m.samples))
        .put("beyond_p99", std::floor(static_cast<double>(m.samples) *
                                      0.01))
        .put("goodput_mbs", m.goodputMBs)
        .put("fail_ratio", ratio(static_cast<double>(m.failed),
                                 static_cast<double>(m.attempted)))
        .put("attempted", static_cast<double>(m.attempted))
        .put("completed", static_cast<double>(m.completed))
        .put("events", static_cast<double>(m.events))
        .put("fingerprint", std::to_string(m.fingerprint))
        .put("digest", std::to_string(m.digest));
}

/** Per-layer metrics of the traced run @p t; @p cold holds the
 *  median cold set-up phases, @p hostUsPerOp and @p untracedLoopS the
 *  timed runs' medians. */
std::vector<Metric>
layerMetrics(const Run &t, const SetupPhases &cold, const LayerTimings &lt,
             double hostUsPerOp, double untracedLoopS)
{
    const LayerCounters &c = t.ctr;
    const ModelResult &m = t.out.model;
    const double ops = static_cast<double>(std::max<std::uint64_t>(
        m.completed, 1));
    const double simS = static_cast<double>(m.simEnd) / 1e9;
    auto per = [&](std::uint64_t v) {
        return static_cast<double>(v) / ops;
    };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    const double eventsPerOp = per(c.events);
    const double packetsPerOp = per(c.tpPackets);
    const double attrEvent = lt.eventNs * eventsPerOp / 1e3;
    const double attrRoute = t.routeNs * packetsPerOp / 1e3;
    // Every CAB-transmitted byte is checksummed once by the sender
    // and once by the receiver, priced per MTU.
    const double attrChecksum =
        2.0 * per(c.cabTxBytes) / 896.0 * lt.checksumMtuNs / 1e3;
    const double attrHistogram = lt.histRecordNs / 1e3;
    const double overhead = t.loopS - untracedLoopS;

    return {
        {"host_us_per_op", hostUsPerOp, "us"},
        {"fail_ratio", ratio(d(m.failed), d(m.attempted)), "ratio"},
        {"sim.events_per_op", eventsPerOp, "count"},
        {"sim.cascades_per_op", per(c.cascades), "count"},
        {"sim.host_ns_per_event",
         ratio(untracedLoopS * 1e9, d(c.events)), "ns"},
        {"sim.allocs_per_op", per(t.allocs), "count"},
        {"sim.copied_bytes_per_op", per(t.copiedBytes), "B"},
        {"sim.pool_nodes", d(t.poolNodes), "count"},
        {"topo.load_s", cold.topoLoad, "s"},
        {"nectarine.build_s", cold.build, "s"},
        {"nectarine.rss_mb_per_site", cold.heapBytesPerSite / 1048576.0,
         "MB"},
        {"transport.route_ns", t.routeNs, "ns"},
        {"transport.packets_per_op", packetsPerOp, "count"},
        {"transport.acks_per_op", per(c.tpAcks), "count"},
        {"transport.retx_ratio", ratio(d(c.tpRetx), d(c.tpPackets)),
         "ratio"},
        {"transport.request_retries", d(c.tpRequestRetries), "count"},
        {"phys.trunk_util_max", ratio(d(c.trunkBusyMax) / 1e9, simS),
         "ratio"},
        {"phys.wire_bytes_per_op", per(c.wireBytes), "B"},
        {"hub.forwards_per_op", per(c.hubForwards), "count"},
        {"hub.open_fail_ratio",
         ratio(d(c.hubOpensFailed), d(c.hubOpensOk + c.hubOpensFailed)),
         "ratio"},
        {"hub.queue_overflows", d(c.hubQueueOverflows), "count"},
        {"hub.stuck_drops", d(c.hubStuckDrops), "count"},
        {"hub.cmd_abandons", d(c.hubCmdAbandons), "count"},
        {"cab.tx_packets_per_op", per(c.cabTxPackets), "count"},
        {"cab.rx_dropped", d(c.cabRxDropped), "count"},
        {"cabos.switches_per_op", per(c.switches), "count"},
        {"cabos.mailbox_put_fails", d(c.mailboxPutFails), "count"},
        {"datalink.route_timeouts", d(c.routeTimeouts), "count"},
        {"datalink.recoveries", d(c.recoveries), "count"},
        {"collectives.hw_mcast_ratio",
         ratio(d(c.mcastHw), d(c.mcastHw + c.mcastUnicast)), "ratio"},
        {"collectives.fallbacks", d(c.mcastFallbacks), "count"},
        {"collectives.epoch_bumps", d(c.epochBumps), "count"},
        {"serving.peak_flow_table",
         extra(t.out, "serving.peak_flow_table"), "count"},
        {"serving.shed", extra(t.out, "serving.shed"), "count"},
        {"node.vme_busy_frac",
         ratio(d(c.vmeBusy) / 1e9, simS * d(c.nodes)), "ratio"},
        {"node.interrupts_per_op", per(c.nodeInterrupts), "count"},
        {"layer.event_schedule_fire_ns", lt.eventNs, "ns"},
        {"layer.checksum_mtu_ns", lt.checksumMtuNs, "ns"},
        {"layer.histogram_record_ns", lt.histRecordNs, "ns"},
        {"layer.histogram_merge_us", lt.histMergeUs, "us"},
        {"layer.topo_load_s", lt.topoLoadS, "s"},
        {"attr.event_us_per_op", attrEvent, "us"},
        {"attr.route_us_per_op", attrRoute, "us"},
        {"attr.checksum_us_per_op", attrChecksum, "us"},
        {"attr.histogram_us_per_op", attrHistogram, "us"},
        {"attr.unattributed_us_per_op",
         hostUsPerOp - attrEvent - attrRoute - attrChecksum -
             attrHistogram,
         "us"},
        {"trace.overhead_s", overhead, "s"},
        {"trace.overhead_frac", ratio(overhead, untracedLoopS), "ratio"},
    };
}

/** The trace file: next to the binary, named by workload and seed. */
std::string
tracePath(const Options &opt)
{
    char exe[4096] = {};
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    std::string dir = ".";
    if (n > 0) {
        dir.assign(exe, static_cast<std::size_t>(n));
        dir = dir.substr(0, dir.rfind('/'));
    }
    return dir + "/trace-" + opt.workload + "-seed" +
           std::to_string(opt.seed) + ".json";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

#if !defined(__OPTIMIZE__) || defined(BENCH_SANITIZED) ||                \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fprintf(stderr,
                 "nectar_bench: refusing to report host metrics from an "
                 "unoptimised or sanitized build (%s, flags '%s')\n",
                 BENCH_BUILD_TYPE, BENCH_CXX_FLAGS);
    return 3;
#endif

    std::vector<std::string> errors;
    auto check = [&](const std::vector<std::string> &errs,
                     const std::string &where) {
        for (const auto &e : errs)
            errors.push_back(where + ": " + e);
    };

    // Cold set-up samples, each in a fresh child, before any run.
    constexpr int setupSamples = 5;
    std::vector<double> setup, topoLoad, build, heapPerSite;
    for (int i = 0; i < setupSamples; ++i) {
        ColdSetup c;
        if (!coldSetup(opt, c)) {
            errors.push_back("set-up sample " + std::to_string(i + 1) +
                             ": child process failed");
            continue;
        }
        setup.push_back(c.total);
        topoLoad.push_back(c.phases.topoLoad);
        build.push_back(c.phases.build);
        heapPerSite.push_back(c.phases.heapBytesPerSite);
    }
    const Summary setupS = summarize(setup);
    SetupPhases cold;
    cold.topoLoad = summarize(topoLoad).median;
    cold.build = summarize(build).median;
    cold.heapBytesPerSite = summarize(heapPerSite).median;

    // Timed loop: repeat the whole run on one seed, at least twice so
    // that modeled outputs are compared, then while one more run of
    // the mean length still ends within --seconds.
    std::vector<Run> runs;
    auto start = Clock::now();
    do {
        runs.push_back(runOnce(opt, opt.seed, nullptr));
        check(runs.back().out.errors,
              "run " + std::to_string(runs.size()));
        if (!(runs.back().out.model == runs.front().out.model))
            errors.push_back("run " + std::to_string(runs.size()) +
                             ": modeled outputs differ from run 1 "
                             "on the same seed");
    } while (runs.size() < 2 ||
             secondsSince(start) * static_cast<double>(runs.size() + 1) /
                     static_cast<double>(runs.size()) <=
                 opt.seconds);
    const double peakRss = peakRssMb();

    std::vector<double> loopS, usPerOp;
    for (const Run &r : runs) {
        loopS.push_back(r.loopS);
        usPerOp.push_back(r.loopS * 1e6 /
                          static_cast<double>(std::max<std::uint64_t>(
                              r.out.model.completed, 1)));
    }
    const ModelResult model = runs.front().out.model;
    const Summary hostUs = summarize(usPerOp), loop = summarize(loopS);

    // Percentile support: at least ten samples beyond p99.
    const bool full = opt.size == Size::full;
    auto supported = [&](const ModelResult &m, const std::string &where) {
        if (full && m.samples / 100 < 10)
            errors.push_back(where + ": only " +
                             std::to_string(m.samples / 100) +
                             " samples beyond p99 (need 10)");
    };
    supported(model, "timed runs");

    // Traced run of the same seed, the outside-in layer timings, and
    // the held-out seed's modeled metrics.
    std::vector<Metric> layers;
    std::string traceFile;
    Run traced, held;
    if (opt.trace) {
        Tracer tracer;
        traced = runOnce(opt, opt.seed, &tracer);
        check(traced.out.errors, "traced run");
        if (!(traced.out.model == model))
            errors.push_back("traced run: modeled outputs or event "
                             "fingerprint differ from the untraced run");
        LayerTimings lt = timeLayers(opt, tracer);
        layers = layerMetrics(traced, cold, lt, hostUs.median,
                              loop.median);
        traceFile = tracePath(opt);
        if (!tracer.write(traceFile))
            errors.push_back("could not write trace to " + traceFile);

        held = runOnce(opt, opt.heldoutSeed, nullptr);
        check(held.out.errors, "held-out seed");
        supported(held.out.model, "held-out seed");
    }

    // ----- human-readable report --------------------------------------
    const double failRatio = ratio(static_cast<double>(model.failed),
                                   static_cast<double>(model.attempted));
    std::printf("nectar perfbench: workload %s, seed %llu, %zu timed "
                "run(s), trace %d, size %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), runs.size(),
                opt.trace ? 1 : 0, full ? "full" : "smoke");
    std::printf("stats start cold: empty queues, flow tables and route "
                "caches; no warm-up is excluded\n");
    std::printf("%-22s %14s %-6s %s\n", "metric", "value", "unit",
                "spread / samples");
    auto row = [](const std::string &n, double v, const std::string &u,
                  const std::string &note) {
        std::printf("%-22s %14s %-6s %s\n", n.c_str(), fixed(v, 4).c_str(),
                    u.c_str(), note.c_str());
    };
    auto iqr = [](const Summary &s) {
        return "q1 " + fixed(s.q1, 4) + " q3 " + fixed(s.q3, 4) +
               " n " + std::to_string(s.n);
    };
    const std::string samples =
        "samples " + std::to_string(model.samples) + ", beyond p99 " +
        std::to_string(model.samples / 100);
    row("setup_s", setupS.median, "s", "cold, " + iqr(setupS));
    row("host_us_per_op", hostUs.median, "us", iqr(hostUs));
    row("peak_rss_mb", peakRss, "MB", "process peak, this workload only");
    row("p50_us", model.p50Us, "us", "simulated, " + samples);
    row("p99_us", model.p99Us, "us", "simulated, " + samples);
    row("goodput_mbs", model.goodputMBs, "MB/s", "simulated");
    row("fail_ratio", failRatio, "ratio",
        std::to_string(model.failed) + " of " +
            std::to_string(model.attempted) + " ops");
    // Workload-specific figures, not metrics of BENCHMARK.json.
    for (const auto &[k, v] : runs.front().out.extras)
        row("extra:" + k, v, "", "");
    if (opt.trace) {
        std::printf("held-out seed %llu: p50_us %s p99_us %s goodput_mbs "
                    "%s (samples %llu)\n",
                    static_cast<unsigned long long>(opt.heldoutSeed),
                    fixed(held.out.model.p50Us).c_str(),
                    fixed(held.out.model.p99Us).c_str(),
                    fixed(held.out.model.goodputMBs).c_str(),
                    static_cast<unsigned long long>(
                        held.out.model.samples));
        std::printf("per-layer (traced run; trace written to %s)\n",
                    traceFile.c_str());
        for (const Metric &m : layers)
            row(m.name, m.value, m.unit,
                m.name.rfind("attr.", 0) == 0
                    ? "host_us_per_op " + fixed(hostUs.median, 4)
                    : "");
    }
    for (const auto &e : errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());

    // ----- machine-readable report and result line ----------------------
    auto stat = [](const Summary &s, const std::string &unit) {
        return Json()
            .put("value", s.median)
            .put("min", s.min)
            .put("q1", s.q1)
            .put("q3", s.q3)
            .put("n", static_cast<double>(s.n))
            .put("unit", unit);
    };
    Json envelope;
    envelope.put("workload", opt.workload)
        .put("seed", static_cast<double>(opt.seed))
        .put("heldout_seed", static_cast<double>(opt.heldoutSeed))
        .put("size", std::string(full ? "full" : "smoke"))
        .put("runs", static_cast<double>(runs.size()))
        .put("setup_samples", static_cast<double>(setup.size()))
        .put("seconds", opt.seconds)
        .put("host_cores",
             static_cast<double>(std::thread::hardware_concurrency()))
        .put("compiler", std::string(BENCH_COMPILER))
        .put("build_type", std::string(BENCH_BUILD_TYPE))
        .put("flags", std::string(BENCH_CXX_FLAGS))
        .put("git_sha", opt.gitSha)
        .put("stats_start", std::string("cold"));
    Json timed;
    timed.put("setup_s", stat(setupS, "s"))
        .put("host_us_per_op", stat(hostUs, "us"))
        .put("loop_s", stat(loop, "s"));
    Json extras;
    for (const auto &[k, v] : runs.front().out.extras)
        extras.put(k, v);
    Json layerJson;
    for (const Metric &m : layers)
        layerJson.put(m.name, m.value);
    std::string errs = "[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        errs += (i ? ", " : "") + quote(errors[i]);
    errs += "]";
    Json report;
    report.put("envelope", envelope)
        .put("timed", timed)
        .put("peak_rss_mb", peakRss)
        .put("model", modelJson(model, opt.seed));
    if (opt.trace)
        report.put("traced", modelJson(traced.out.model, opt.seed))
            .put("heldout", modelJson(held.out.model, opt.heldoutSeed))
            .put("layers", layerJson);
    report.put("extras", extras).raw("errors", errs);
    std::printf("REPORT %s\n", report.str().c_str());

    Json metrics;
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) {
        metrics.put(name, Json().put("value", v).put("unit", unit));
    };
    if (!opt.trace) {
        add("setup_s", setupS.median, "s");
        add("peak_rss_mb", peakRss, "MB");
        add("p50_us", model.p50Us, "us");
        add("p99_us", model.p99Us, "us");
        add("goodput_mbs", model.goodputMBs, "MB/s");
    } else {
        for (const Metric &m : layers)
            add(m.name, m.value, m.unit);
    }
    std::uint64_t attempted = 0, failed = 0;
    for (const Run &r : runs) {
        attempted += r.out.model.attempted;
        failed += r.out.model.failed;
    }
    std::printf("%s\n",
                Json()
                    .raw("correct", errors.empty() ? "true" : "false")
                    .put("attempted", static_cast<double>(attempted))
                    .put("failed", static_cast<double>(failed))
                    .put("metrics", metrics)
                    .str()
                    .c_str());
    std::fflush(stdout);
    return errors.empty() ? 0 : 1;
}
