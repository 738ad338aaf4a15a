/**
 * @file
 * The Nectar HUB: crossbar switch + central controller + I/O ports.
 *
 * Section 4 of the paper.  The HUB establishes connections and passes
 * messages between its input and output fiber lines.  Its four design
 * goals — low latency, high switching rate, efficient multi-HUB
 * support, and flexibility — map onto this model as:
 *
 *  1. Low latency: connection setup through a single HUB takes
 *     hubSetupCycles (10 cycles, 700 ns) to the first byte; an open
 *     connection forwards each item with hubTransferCycles (5 cycles,
 *     350 ns) of latency, pipelined at the fiber rate.
 *  2. High switching rate: the central controller executes one
 *     status-table command per 70 ns cycle.
 *  3. Multi-HUB support: ready-bit flow control is implemented in
 *     hardware (IoPort); CAB-HUB and HUB-HUB ports are identical, so
 *     clusters connect in any topology (src/topo).
 *  4. Flexibility: point-to-point and multicast connections with
 *     either circuit or packet switching are composed from the simple
 *     command set in hub/commands.hh.
 */

#pragma once

#include <memory>
#include <vector>

#include "hub/controller.hh"
#include "hub/crossbar.hh"
#include "hub/monitor.hh"
#include "hub/port.hh"
#include "sim/component.hh"
#include "sim/stats.hh"

namespace nectar::hub {

/** Aggregate HUB statistics (the instrumentation board's counters). */
struct HubStats
{
    sim::Counter opensOk;        ///< Successful connection opens.
    sim::Counter opensFailed;    ///< Failed fail-fast opens.
    sim::Counter closes;         ///< Connections released.
    sim::Counter repliesSent;    ///< Replies inserted into streams.
    sim::Counter packetsForwarded; ///< Start-of-packet items switched.
    sim::Counter dataBytes;      ///< Data bytes switched.
    sim::Counter queueOverflows; ///< Items dropped: input queue full.
    sim::Counter staleReplies;   ///< Replies with no reverse route.
    sim::Counter disabledDrops;  ///< Items dropped by disabled ports.
    sim::Counter badCommands;    ///< Unknown opcodes / bad parameters.
    sim::Counter retryGiveUps;   ///< Retrying commands past the limit.
    sim::Counter stuckDrops;     ///< Queue heads discarded by the
                                 ///< blocked-head watchdog.
    sim::Counter readyRearms;    ///< Ready bits re-armed after the
                                 ///< restoring signal was presumed lost.
    sim::Counter idleCloses;     ///< Connections reaped by the
                                 ///< idle-circuit watchdog.
    sim::Counter cmdAbandons;    ///< Pending controller commands
                                 ///< withdrawn by the submitting
                                 ///< port's settle watchdog.
};

/** Configuration for a Hub instance. */
struct HubConfig
{
    int numPorts = sim::proto::hubPorts;      ///< 16 in the prototype.
    int queueCapacity = sim::proto::hubInputQueueBytes;
    Tick cycle = sim::proto::hubCycle;        ///< 70 ns.
    /** Cycles from full command arrival to controller submission. */
    int decodeCycles = 2;
    /** Cycles of cut-through latency per forwarded item. */
    int transferCycles = sim::proto::hubTransferCycles;
    /**
     * Watchdog on a queue head blocked with no wakeup in sight (its
     * connection never opens because the open command was lost, or
     * the route died under it).  After this long the head is
     * discarded so the queue keeps draining and the ready handshake
     * stays live; reliability above retransmits the loss.  0 disables
     * the watchdog.
     */
    Tick stuckTimeout = 200 * sim::ticks::us;
    /**
     * Watchdog on an output register's cleared ready bit.  The ready
     * signal restoring it is a single wire item; if it is lost (dark
     * fiber, burst loss, a dead endpoint) the bit would stay false
     * forever and wedge every route through the port.  After this
     * long with no signal the port presumes the downstream queue
     * drained and re-arms.  0 disables the watchdog.
     */
    Tick readyTimeout = 500 * sim::ticks::us;
    /**
     * Watchdog on open connections whose input port has gone silent.
     * A close all that is dropped (queue overflow, dark fiber) leaves
     * its circuit open with nothing left to close it; the held output
     * ports then fail every later open until the command retry limit
     * silently discards the traffic.  A connection whose input has
     * neither forwarded an item nor opened a branch for this long is
     * presumed abandoned and closed; reliability above retransmits
     * anything cut off mid-flight.  0 (the default) disables the
     * watchdog: a bare HUB keeps circuits open indefinitely, as the
     * hardware does.  The nectarine system builders enable it, since
     * a full transport stack is what suffers from wedged circuits.
     */
    Tick circuitIdleTimeout = 0;
};

/**
 * A Nectar HUB.
 *
 * Wiring: for each port, the incoming fiber's sink is port(i) and the
 * outgoing fiber is attached with port(i).attachOutput().  src/topo
 * provides helpers that build fiber pairs between HUBs and CABs.
 */
class Hub : public sim::Component
{
  public:
    /**
     * @param eq Event queue.
     * @param name Instance name.
     * @param id This HUB's address in command words.
     * @param config Structural and timing parameters.
     * @param monitor Optional instrumentation board.
     */
    Hub(sim::EventQueue &eq, std::string name, std::uint8_t id,
        const HubConfig &config = {}, HubMonitor *monitor = nullptr);

    std::uint8_t hubId() const { return _hubId; }
    int numPorts() const { return config.numPorts; }

    IoPort &port(PortId i);
    const IoPort &port(PortId i) const;

    Crossbar &crossbar() { return xbar; }
    const Crossbar &crossbar() const { return xbar; }

    CentralController &controller() { return ctrl; }

    const HubConfig &configuration() const { return config; }

    HubStats &stats() { return _stats; }
    const HubStats &stats() const { return _stats; }

    /** Saturating 8-bit error count reported by svQueryErrors. */
    std::uint8_t errorCount() const;

    // ----- Internal API used by IoPort and CentralController -------

    /**
     * Route a fully received command: serialized ops go to the
     * central controller, localized ops execute immediately.
     */
    void dispatchCommand(const phys::CommandWord &cmd, PortId arrival);

    /**
     * Execute a serialized command on behalf of the controller.
     * @return true on success; false means a retrying command should
     *         be attempted again.
     */
    bool executeSerialized(const phys::CommandWord &cmd, PortId arrival);

    /**
     * The controller reached a final disposition (execution or retry
     * give-up) for a command submitted from @p arrival; unblocks that
     * port's input stream.
     */
    void commandSettled(PortId arrival);

    /** Execute a localized command at the arrival port. */
    void executeLocal(const phys::CommandWord &cmd, PortId arrival);

    /** Insert a reply into the stream flowing back toward @p arrival. */
    void sendReply(PortId arrival, std::uint8_t op, std::uint8_t param,
                   std::uint8_t status);

    /**
     * A reply arrived at @p atPort; forward it backward along the
     * route (out the output register of the input that owns this
     * port's output), stealing cycles.
     */
    void forwardReplyReverse(PortId atPort, const phys::ReplyWord &reply);

    /** Record an event on the instrumentation board, if present. */
    void
    monitorRecord(HubEvent event, PortId a, PortId b)
    {
        if (monitor)
            monitor->record(now(), event, a, b);
    }

    /** Count an error toward svQueryErrors. */
    void countError();

    /**
     * An item was forwarded through the crossbar from @p in: the
     * circuit is live.  Feeds the idle-circuit watchdog.
     */
    void noteCircuitActivity(PortId in);

    /**
     * Connections were closed.  If the crossbar is now fully idle the
     * pending idle-circuit watchdog is disarmed, so a quiescent HUB
     * leaves no event behind to stretch the simulation's drain time.
     */
    void noteCircuitClosed();

  private:
    /** Open @p arrival -> param connection; shared by open family. */
    bool doOpen(const phys::CommandWord &cmd, PortId arrival);

    /** (Re)arm the idle-circuit watchdog to fire at @p when. */
    void armIdleReaper(Tick when);

    /** Close connections whose input sat silent past the limit. */
    void reapIdleCircuits();

    std::uint8_t _hubId;
    HubConfig config;
    Crossbar xbar;
    CentralController ctrl;
    std::vector<std::unique_ptr<IoPort>> ports;
    HubMonitor *monitor;
    HubStats _stats;
    std::uint64_t errors = 0;
    /** Per input port: when its circuit last carried an item. */
    std::vector<Tick> lastActivity;
    sim::EventId idleReaper = sim::invalidEventId;
};

} // namespace nectar::hub
