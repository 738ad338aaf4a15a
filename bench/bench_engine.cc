/**
 * @file
 * E16 — discrete-event engine throughput (events/sec, ns/event).
 *
 * Unlike E1-E15, this measures the *simulator*, not the simulated
 * system: the PR-5 engine overhaul (hierarchical timer wheel, pooled
 * event nodes, EventFn small-buffer callbacks) is a
 * wall-clock optimisation and must prove itself against the seed
 * engine, which is preserved verbatim in
 * tests/helpers/legacy_event_queue.hh.  Three synthetic workloads
 * bracket the shapes the real stack generates:
 *
 *  - pipeline: schedule-one/fire-one chains at HUB-cycle spacing —
 *    the packet pipeline's steady state (E9's engine-side profile),
 *  - mesh: many concurrent actors with mixed horizons — the
 *    mesh-scaling workloads' deep-queue profile (E10),
 *  - churn: retransmission timers re-armed (cancel + schedule) on
 *    every ack and almost never firing — the transport RTO pattern,
 *    the motivating case for O(1) cancel.
 *
 * Every row lands in BENCH_engine.json along with the wheel/seed
 * speedups and a steady-state allocation count: after warm-up, one
 * million schedule/fire cycles on the wheel engine must perform zero
 * heap allocations (global operator new is instrumented below).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "helpers/legacy_event_queue.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

// nectar-lint-file: capture-ok every scenario drives eq.run() to
// completion before any captured frame local leaves scope
// nectar-lint-file: wallclock-ok this harness measures real
// events-per-second throughput; the CPU clock never feeds sim state

// ----- global allocation counter ------------------------------------
//
// Counts every operator-new in the process; scenario deltas isolate
// the engine's steady-state behaviour.  Counting is exact, not
// sampled, so "0 allocations per million events" is a hard claim.

namespace {
std::uint64_t g_newCalls = 0;
}

void *
operator new(std::size_t n)
{
    ++g_newCalls;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace nectar;
using nectar::testutil::LegacyEventQueue;
using sim::EventPriority;
using sim::Tick;
using namespace sim::ticks;

// ----- scenarios, templated over the engine -------------------------
//
// Each scenario is a stable actor object whose events capture only
// [this] (or [this, smallInt]): 8-16 bytes, inside the inline buffer
// of *both* callback types, so the comparison isolates the engines'
// internals rather than closure allocation strategies.

/** Schedule-one/fire-one chains at HUB-cycle spacing. */
template <typename Queue>
struct PipelineActor
{
    Queue &eq;
    std::uint64_t budget;

    void
    fire()
    {
        if (budget == 0)
            return;
        --budget;
        eq.scheduleIn(70 * ns, [this] { fire(); },
                      EventPriority::hardware);
    }
};

template <typename Queue>
void
pipelineScenario(Queue &eq, std::uint64_t events)
{
    constexpr int chains = 4;
    PipelineActor<Queue> actor{eq, events};
    for (int i = 0; i < chains; ++i)
        eq.scheduleIn((i + 1) * 10 * ns, [&actor] { actor.fire(); },
                      EventPriority::hardware);
    eq.run();
}

/** Many actors, mixed horizons: deep queue, wheel levels exercised. */
template <typename Queue>
struct MeshActor
{
    Queue &eq;
    std::uint64_t budget;
    sim::Random rng{7, /*stream=*/16};

    static constexpr Tick deltas[] = {70 * ns,  110 * ns, 530 * ns,
                                      3 * us,   21 * us,  170 * us,
                                      900 * us, 2 * ms};

    void
    act()
    {
        if (budget == 0)
            return;
        --budget;
        eq.scheduleIn(deltas[rng.below(8)], [this] { act(); },
                      EventPriority::normal);
    }
};

template <typename Queue>
void
meshScenario(Queue &eq, std::uint64_t events)
{
    constexpr int actors = 64;
    MeshActor<Queue> shared{eq, events};
    for (int i = 0; i < actors; ++i)
        eq.scheduleIn((i + 1) * 100 * ns, [&shared] { shared.act(); },
                      EventPriority::normal);
    eq.run();
}

/** RTO churn: per-flow timers re-armed on every ack, rarely firing.
 *  Both engines re-arm by cancel + schedule, as the stack does. */
template <typename Queue>
struct ChurnActor
{
    Queue &eq;
    std::uint64_t budget;
    std::vector<typename Queue::EventId> timers;

    void
    ack(int f)
    {
        if (budget == 0)
            return;
        --budget;
        auto &timer = timers[static_cast<std::size_t>(f)];
        if (eq.pending(timer))
            eq.cancel(timer);
        timer = eq.scheduleIn(2 * ms, [] {}, EventPriority::software);
        eq.scheduleIn(1 * us, [this, f] { ack(f); },
                      EventPriority::software);
    }
};

template <typename Queue>
void
churnScenario(Queue &eq, std::uint64_t events)
{
    constexpr int flows = 32;
    ChurnActor<Queue> actor{eq, events, {}};
    actor.timers.resize(flows);
    for (int f = 0; f < flows; ++f)
        eq.scheduleIn((f + 1) * 30 * ns,
                      [&actor, f] { actor.ack(f); },
                      EventPriority::software);
    eq.run();
}

// ----- measurement + JSON row collection ----------------------------
//
// The wheel/seed comparison gates tier-1, so its verdict must not
// depend on which engine happened to run while the host was busy.
// Each scenario runs as `pairs` back-to-back (wheel, seed) pairs whose
// order alternates, so slow drift in host speed hits both engines
// equally.  Runs are timed on the thread's CPU clock, so time the host
// spends on other processes is charged to neither engine.  The gate
// reads the median of the per-pair ratios.

/** (wheel, seed) repetitions per scenario. */
constexpr int pairs = 21;

/** Median and quartiles (linear interpolation between ranks). */
struct Quartiles
{
    double q1 = 0, median = 0, q3 = 0;
};

Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&v](double p) {
        const double pos = p * static_cast<double>(v.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return Quartiles{at(0.25), at(0.5), at(0.75)};
}

/** One engine's runs of one scenario, summarized by their median. */
struct Row
{
    std::string scenario;
    std::string engine;
    std::uint64_t events = 0;
    double seconds = 0; ///< median CPU time of one run
    double eventsPerSec = 0;
    double nsPerEvent = 0;
};

struct Comparison
{
    Row wheel, seed;
    Quartiles speedup; ///< over the per-pair wheel/seed ratios
};

std::map<std::string, Comparison> &
comparisons()
{
    static std::map<std::string, Comparison> c;
    return c;
}

/** CPU time consumed by the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Run @p body once on a fresh @p Queue; returns events per
 *  CPU-second. */
template <typename Queue, typename Scenario>
double
runOnce(Scenario body, std::uint64_t events, std::uint64_t &executed,
        std::vector<double> &seconds)
{
    Queue eq;
    const double t0 = threadCpuSeconds();
    body(eq, events);
    const double secs = threadCpuSeconds() - t0;
    executed = eq.executedCount();
    seconds.push_back(secs);
    return static_cast<double>(executed) / secs;
}

Row
summarizeRow(const std::string &scenario, const std::string &engine,
             std::uint64_t events, const std::vector<double> &seconds)
{
    Row row{scenario, engine, events, quartiles(seconds).median};
    row.eventsPerSec = static_cast<double>(events) / row.seconds;
    row.nsPerEvent = row.seconds * 1e9 / static_cast<double>(events);
    return row;
}

template <typename WheelFn, typename SeedFn>
void
compare(const std::string &scenario, WheelFn wheelBody, SeedFn seedBody,
        std::uint64_t events)
{
    std::vector<double> wheelSecs, seedSecs, ratios;
    std::uint64_t wheelEvents = 0, seedEvents = 0;
    // One untimed pair first: page faults and cold caches would
    // otherwise land on whichever engine runs first.
    runOnce<sim::EventQueue>(wheelBody, events, wheelEvents, wheelSecs);
    runOnce<LegacyEventQueue>(seedBody, events, seedEvents, seedSecs);
    wheelSecs.clear();
    seedSecs.clear();
    for (int p = 0; p < pairs; ++p) {
        double wheel = 0, seed = 0;
        if (p % 2 == 0) {
            wheel = runOnce<sim::EventQueue>(wheelBody, events,
                                             wheelEvents, wheelSecs);
            seed = runOnce<LegacyEventQueue>(seedBody, events,
                                             seedEvents, seedSecs);
        } else {
            seed = runOnce<LegacyEventQueue>(seedBody, events,
                                             seedEvents, seedSecs);
            wheel = runOnce<sim::EventQueue>(wheelBody, events,
                                             wheelEvents, wheelSecs);
        }
        ratios.push_back(wheel / seed);
    }
    comparisons()[scenario] = Comparison{
        summarizeRow(scenario, "wheel", wheelEvents, wheelSecs),
        summarizeRow(scenario, "seed", seedEvents, seedSecs),
        quartiles(ratios)};
}

/** Steady-state allocation probe: warm the pool, then demand zero
 *  operator-new calls across a further @p events schedule/fire
 *  cycles on the wheel engine. */
struct SteadyProbe
{
    sim::EventQueue &eq;
    std::uint64_t budget;
    std::uint64_t half;
    bool measuring = false;
    std::uint64_t baseline = 0;

    void
    fire()
    {
        if (budget == 0)
            return;
        --budget;
        if (!measuring && budget == half) {
            // Pool, wheel and due-heap capacities are warm; every
            // allocation from here on is a regression.
            measuring = true;
            baseline = g_newCalls;
        }
        eq.scheduleIn(70 * ns, [this] { fire(); },
                      EventPriority::hardware);
    }
};

std::uint64_t
steadyStateAllocs(std::uint64_t events)
{
    sim::EventQueue eq;
    constexpr int chains = 4;
    SteadyProbe probe{eq, events, events / 2};
    for (int i = 0; i < chains; ++i)
        eq.scheduleIn((i + 1) * 10 * ns, [&probe] { probe.fire(); },
                      EventPriority::hardware);
    eq.run();
    return g_newCalls - probe.baseline;
}

// ----- google-benchmark wrappers (console exploration) --------------

template <typename Queue, typename Scenario>
void
runBench(benchmark::State &state, Scenario &&body)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Queue eq;
        body(eq, static_cast<std::uint64_t>(state.range(0)));
        events += eq.executedCount();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}

void
BM_Pipeline_Wheel(benchmark::State &state)
{
    runBench<sim::EventQueue>(state, [](auto &eq, std::uint64_t n) {
        pipelineScenario(eq, n);
    });
}

void
BM_Pipeline_Seed(benchmark::State &state)
{
    runBench<LegacyEventQueue>(state, [](auto &eq, std::uint64_t n) {
        pipelineScenario(eq, n);
    });
}

void
BM_Mesh_Wheel(benchmark::State &state)
{
    runBench<sim::EventQueue>(state, [](auto &eq, std::uint64_t n) {
        meshScenario(eq, n);
    });
}

void
BM_Mesh_Seed(benchmark::State &state)
{
    runBench<LegacyEventQueue>(state, [](auto &eq, std::uint64_t n) {
        meshScenario(eq, n);
    });
}

void
BM_TimerChurn_Wheel(benchmark::State &state)
{
    runBench<sim::EventQueue>(state, [](auto &eq, std::uint64_t n) {
        churnScenario(eq, n);
    });
}

void
BM_TimerChurn_Seed(benchmark::State &state)
{
    runBench<LegacyEventQueue>(state, [](auto &eq, std::uint64_t n) {
        churnScenario(eq, n);
    });
}

BENCHMARK(BM_Pipeline_Wheel)->Arg(200000);
BENCHMARK(BM_Pipeline_Seed)->Arg(200000);
BENCHMARK(BM_Mesh_Wheel)->Arg(200000);
BENCHMARK(BM_Mesh_Seed)->Arg(200000);
BENCHMARK(BM_TimerChurn_Wheel)->Arg(100000);
BENCHMARK(BM_TimerChurn_Seed)->Arg(100000);

// ----- JSON ---------------------------------------------------------

/** Median wheel/seed speedup of @p scenario. */
double
speedup(const std::string &scenario)
{
    return comparisons().at(scenario).speedup.median;
}

void
writeJson(const std::string &file, std::uint64_t steadyAllocs,
          std::uint64_t fnHeapAllocs)
{
    std::ofstream out(file);
    out << "{\n  \"bench\": \"engine\",\n";
    out << "  \"host_cores\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"repetitions\": " << pairs << ",\n";
    out << "  \"clock\": \"thread_cpu\",\n";
    out << "  \"steady_state_heap_allocs_per_1M_events\": "
        << steadyAllocs << ",\n";
    out << "  \"eventfn_heap_allocs\": " << fnHeapAllocs << ",\n";
    out << "  \"speedup\": {\n";
    bool first = true;
    for (const auto &[scenario, c] : comparisons()) {
        if (!first)
            out << ",\n";
        first = false;
        out << "    \"" << scenario << "\": {\"median\": "
            << c.speedup.median << ", \"q1\": " << c.speedup.q1
            << ", \"q3\": " << c.speedup.q3 << "}";
    }
    out << "\n  },\n  \"rows\": [\n";
    first = true;
    for (const auto &[scenario, c] : comparisons()) {
        for (const Row *row : {&c.wheel, &c.seed}) {
            if (!first)
                out << ",\n";
            first = false;
            out << "    {\"scenario\": \"" << row->scenario
                << "\", \"engine\": \"" << row->engine
                << "\", \"events\": " << row->events
                << ", \"seconds\": " << row->seconds
                << ", \"events_per_sec\": " << row->eventsPerSec
                << ", \"ns_per_event\": " << row->nsPerEvent << "}";
        }
    }
    out << "\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // The comparison table is measured directly (independent of any
    // --benchmark_filter) so BENCH_engine.json is always complete.
    constexpr std::uint64_t big = 1'000'000;
    constexpr std::uint64_t churnN = 500'000;
    compare("pipeline", &pipelineScenario<sim::EventQueue>,
            &pipelineScenario<LegacyEventQueue>, big);
    compare("mesh", &meshScenario<sim::EventQueue>,
            &meshScenario<LegacyEventQueue>, big);
    compare("churn", &churnScenario<sim::EventQueue>,
            &churnScenario<LegacyEventQueue>, churnN);

    const std::uint64_t fnHeapBefore = sim::EventFn::heapAllocCount();
    const std::uint64_t steadyAllocs = steadyStateAllocs(2'000'000);
    const std::uint64_t fnHeapAllocs =
        sim::EventFn::heapAllocCount() - fnHeapBefore;
    writeJson("BENCH_engine.json", steadyAllocs, fnHeapAllocs);

    const double pipe = speedup("pipeline");
    const double churn = speedup("churn");
    std::printf("engine speedup (median of %d pairs): pipeline %.2fx, "
                "mesh %.2fx, churn %.2fx; steady-state allocs/1M "
                "events: %llu\n",
                pairs, pipe, speedup("mesh"), churn,
                static_cast<unsigned long long>(steadyAllocs));
    // Acceptance: pipeline and timer-churn must be >= 2x the seed
    // engine, and the steady-state path allocation-free.
    if (pipe < 2.0 || churn < 2.0 || steadyAllocs != 0) {
        std::fprintf(stderr,
                     "bench_engine: acceptance thresholds not met\n");
        return 1;
    }
    return 0;
}
