/**
 * @file
 * The benchmark's three workloads, each built only from the
 * simulator's public API on one sequential sim::EventQueue.
 *
 * A Scenario owns one complete run: event queue, system and workload
 * state.  Construction is the set-up phase (timed by phase); the
 * caller then drives the queue to drain and calls finish(), which
 * checks the run's outputs and returns its modeled results.  Every
 * run starts from empty queues, flow tables and caches.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nectarine/system.hh"
#include "sim/event_queue.hh"

namespace nectar::fault {
class DeliveryOracle;
}

namespace nectar::perfbench {

/** Workload names, in the order BENCHMARK.json lists them. */
extern const std::vector<std::string> workloadNames;

/** The .topo file of the fabric16 workloads (16 HUBs, 208 CABs). */
extern const std::string fabric16File;

/** Host seconds spent in each set-up phase of one scenario. */
struct SetupPhases
{
    double topoLoad = 0; ///< loadTopologyFile (0 for generated fabrics)
    double build = 0;    ///< NectarSystem assembly
    double workload = 0; ///< workload objects, tasks and mailboxes
    /** Heap bytes in use after assembly minus before, per CAB site. */
    double heapBytesPerSite = 0;
};

/**
 * Model-visible results of one run.  A pure function of (workload,
 * seed, size): two runs of one seed compare equal field for field.
 */
struct ModelResult
{
    std::uint64_t attempted = 0; ///< ops started or offered
    std::uint64_t completed = 0; ///< ops completed and verified
    std::uint64_t failed = 0;    ///< failed, shed or unfinished
    std::uint64_t samples = 0;   ///< latency samples recorded
    double p50Us = 0;
    double p99Us = 0;
    double goodputMBs = 0;       ///< payload MB per simulated second
    sim::Tick simEnd = 0;        ///< last op completion
    std::uint64_t events = 0;    ///< EventQueue::executedCount
    std::uint64_t fingerprint = 0; ///< EventQueue::fingerprint
    std::uint64_t digest = 0;    ///< workload-specific output digest

    bool operator==(const ModelResult &) const = default;
};

/** Outcome of finish(): results plus every correctness violation. */
struct Outcome
{
    ModelResult model;
    std::vector<std::string> errors;
    /** Workload-specific values the report prints (name, value). */
    std::vector<std::pair<std::string, double>> extras;
};

/**
 * Per-layer counters summed over every component of one system.
 * Sampled between runUntil slices (deltas) and at the end (totals).
 */
struct LayerCounters
{
    std::uint64_t events = 0, cascades = 0;
    std::uint64_t tpPackets = 0, tpAcks = 0, tpRetx = 0,
                  tpRequestRetries = 0;
    std::uint64_t mcastHw = 0, mcastUnicast = 0, mcastFallbacks = 0;
    std::uint64_t hubForwards = 0, hubOpensOk = 0, hubOpensFailed = 0,
                  hubQueueOverflows = 0, hubStuckDrops = 0,
                  hubCmdAbandons = 0;
    std::uint64_t cabTxPackets = 0, cabTxBytes = 0, cabRxDropped = 0;
    std::uint64_t switches = 0, mailboxPutFails = 0;
    std::uint64_t routeTimeouts = 0, recoveries = 0;
    std::uint64_t wireBytes = 0;
    sim::Tick trunkBusyMax = 0; ///< busiest inter-HUB fiber
    std::uint64_t epochBumps = 0;
    std::uint64_t nodeInterrupts = 0;
    sim::Tick vmeBusy = 0;      ///< summed over node VME buses
    std::uint64_t nodes = 0;    ///< node VME buses in the scenario
};

/** Size of a run: the measured configuration or a tiny smoke. */
enum class Size { full, smoke };

/** One complete, independently built run of a workload. */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    sim::EventQueue &eventq() { return eq; }
    nectarine::NectarSystem &system() { return *sys; }
    const SetupPhases &phases() const { return _phases; }

    /** Attach the delivery oracle to every transport and group. */
    virtual void attachOracle(fault::DeliveryOracle &oracle);

    /** Check outputs and compute the modeled results (after drain). */
    virtual Outcome finish() = 0;

    /** Sum every layer's counters as of now. */
    LayerCounters counters() const;

    /** Mailbox ids the workload uses on every site (put failures). */
    virtual std::vector<std::uint16_t> mailboxIds() const = 0;

    /** Simulated length of one traced slice (about 100 per run). */
    sim::Tick traceSlice() const { return _slice; }

  protected:
    Scenario() = default;

    /**
     * Assemble the system from @p fabricFile, or as a single-HUB star
     * of @p starCabs CABs when the file name is empty, timing the
     * topology load and the build.
     */
    void assemble(const std::string &fabricFile, int starCabs = 0);

    /** Record the counters a concrete workload owns. */
    virtual void addWorkloadCounters(LayerCounters &) const {}

    sim::EventQueue eq;
    std::unique_ptr<nectarine::NectarSystem> sys;
    SetupPhases _phases;
    sim::Tick _slice = 0;
};

/**
 * Build the named workload (set-up phase) for @p seed.  Returns
 * nullptr for an unknown name.
 */
std::unique_ptr<Scenario> makeScenario(const std::string &name,
                                       std::uint64_t seed, Size size);

} // namespace nectar::perfbench
