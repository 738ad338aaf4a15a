/**
 * @file
 * Open-loop RPC serving workload: a synthetic client population of
 * millions of logical request flows multiplexed over the CAB sites.
 *
 * The ROADMAP's north star is a system "measured like a service":
 * not mean latency of a paper-shaped transfer, but the p50/p99/p999
 * tail of request/response traffic under an offered load the clients
 * do not reduce when the system slows down.  Every site runs one RPC
 * server (transport request-response protocol, Section 6.2.2) and
 * one client driver.  Drivers generate arrivals from a pluggable
 * open-loop process — Poisson, bursty (two-state MMPP), or hotspot
 * (Zipf-skewed destinations) — or from a closed loop for comparison.
 *
 * The population is lazy: a logical flow is a 64-bit id whose state
 * (per-flow seed, request sequence) is derived deterministically on
 * first use and dropped when its last outstanding request completes.
 * Memory is bounded by the per-host flow table (at most
 * maxOutstandingPerHost entries), never by the flow count, so a
 * million-flow population costs the same as a thousand-flow one.
 * Arrivals that would exceed the outstanding bound are shed and
 * counted, keeping overload runs bounded too.
 *
 * Everything draws from per-host seeded PCG streams, so a run is
 * bit-deterministic per seed: same seed, same event trace, same
 * report.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nectarine/system.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace nectar::serving {

using sim::Tick;
using namespace sim::ticks;

/** Arrival process driving the client population. */
enum class Arrival
{
    poisson, ///< Memoryless open-loop arrivals, uniform destinations.
    bursty,  ///< Two-state MMPP: ON/OFF dwell times, same mean load.
    hotspot, ///< Poisson arrivals, Zipf-skewed destination servers.
    closed,  ///< Closed loop: fixed concurrency, think time.
};

/** Name of an arrival kind ("poisson", ...). */
const char *arrivalName(Arrival a);

/** Parameters for ServingWorkload. */
struct ServingConfig
{
    Arrival arrival = Arrival::poisson;

    /** Logical client flows in the population (lazily materialized). */
    std::uint64_t flows = 1'000'000;

    /** Offered load, requests/second summed over all client hosts
     *  (open-loop modes only). */
    double offeredRps = 50'000;

    /** Arrivals stop at this simulated time; outstanding requests
     *  then drain. */
    Tick duration = 20 * ms;

    /** Stop a host after this many arrivals (0 = duration only);
     *  lets fixed-size scenarios (chaos fuzzing) drain naturally. */
    std::uint64_t maxArrivalsPerHost = 0;

    std::uint32_t requestBytes = 128;
    std::uint32_t responseBytes = 256;

    /** Server-side compute charged per request (the "service"). */
    Tick serverCompute = 8 * us;

    // Bursty (MMPP): mean ON/OFF dwell times.  The ON-state rate is
    // scaled up by the duty cycle so the long-run load matches
    // offeredRps.
    Tick burstOnMean = 2 * ms;
    Tick burstOffMean = 2 * ms;

    /** Hotspot: Zipf exponent over destination servers (higher =
     *  more skew toward low-numbered sites). */
    double zipfSkew = 1.2;

    // Closed loop.
    int closedConcurrency = 4; ///< Workers per client host.
    Tick closedThink = 50 * us; ///< Gap between response and next send.

    /** Flow-table bound: arrivals beyond this many outstanding
     *  requests per host are shed (counted, not issued). */
    std::uint32_t maxOutstandingPerHost = 4096;

    std::uint64_t seed = 1;
};

/** What one serving run measured.  Pure sim quantities: two runs of
 *  the same seed compare equal field-for-field. */
struct ServingReport
{
    std::uint64_t arrivals = 0;  ///< Generated by the arrival process.
    std::uint64_t issued = 0;    ///< Requests actually sent.
    std::uint64_t completed = 0; ///< Responses received.
    std::uint64_t failed = 0;    ///< RPCs that exhausted retries.
    std::uint64_t shed = 0;      ///< Arrivals over the outstanding cap.

    double p50Ns = 0;
    double p99Ns = 0;
    double p999Ns = 0;
    double meanNs = 0;

    /** Completed requests per second of the measurement window. */
    double achievedRps = 0;
    /** Request+response payload bytes completed, MB/s. */
    double goodputMBs = 0;

    /** Largest concurrent flow-table size across all hosts. */
    std::uint64_t peakFlowTable = 0;
    /** When the last response arrived. */
    Tick lastDoneAt = 0;

    bool operator==(const ServingReport &) const = default;
};

/**
 * The serving workload over one NectarSystem: a server and a client
 * driver on every site.  Construct, run the event queue to
 * completion, then read report().  The object must outlive the run.
 */
class ServingWorkload
{
  public:
    using Config = ServingConfig;

    ServingWorkload(nectarine::NectarSystem &sys,
                    const ServingConfig &config = {});

    /** Aggregated measurement (valid once the queue has drained). */
    ServingReport report() const;

    /** Response-latency histogram (ns), merged over all hosts. */
    const sim::Histogram &latency() const;

    /** Requests processed by the server on @p site. */
    std::uint64_t requestsServedAt(std::size_t site) const
    {
        return served[site];
    }

    /** Largest concurrent flow-table size seen across all hosts. */
    std::uint64_t peakFlowTableEntries() const;

  private:
    /** Lazily created per-flow state; dropped when the last
     *  outstanding request of the flow completes. */
    struct FlowEntry
    {
        std::uint32_t outstanding = 0;
        std::uint32_t seq = 0;
        std::uint64_t flowSeed = 0;
    };

    /**
     * One client host: its RNG stream, bounded flow table, and its
     * share of every aggregate.  All measurement state is per host so
     * a host's coroutines touch only their own host's slice;
     * report()/latency() merge the hosts after the run.
     */
    struct HostState
    {
        explicit HostState(std::uint64_t seed, std::uint64_t stream)
            : rng(seed, stream)
        {}

        sim::Random rng;
        std::unordered_map<std::uint64_t, FlowEntry> table;
        std::uint32_t outstanding = 0;
        std::uint64_t arrivals = 0;
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t shed = 0;
        std::uint64_t goodputBytes = 0;
        std::uint64_t peakTable = 0;
        Tick lastDoneAt = 0;
        sim::Histogram latency;
    };

    sim::Task<void> serverLoop(std::size_t site);
    sim::Task<void> driverLoop(std::size_t host);
    sim::Task<void> closedWorker(std::size_t host, int worker);
    sim::Task<void> requestOnce(std::size_t host, std::size_t dst,
                                std::uint64_t flowId,
                                std::uint64_t payloadSeed);

    /** Pick a destination server for @p host's next request. */
    std::size_t pickDestination(std::size_t host, HostState &hs);

    /** Admit one arrival on @p host; returns false when shed. */
    bool admitArrival(std::size_t host, HostState &hs);

    void finishFlow(std::size_t host, std::uint64_t flowId);

    nectarine::NectarSystem &sys;
    Config cfg;

    std::vector<std::unique_ptr<HostState>> hosts;
    std::vector<double> zipfCdf; ///< Hotspot destination CDF.
    std::vector<std::uint64_t> served;

    /** latency() merge target, rebuilt from the hosts on demand. */
    mutable sim::Histogram _mergedLatency;
};

} // namespace nectar::serving
