/**
 * @file
 * The CAB: Nectar's communication accelerator board.
 *
 * Section 5: "The CAB is the interface between a node and the
 * Nectar-net. ... Communication protocol processing is off-loaded
 * from the node to the CAB thus freeing the node from the burden of
 * handling packet interrupts, processing packet headers,
 * retransmitting lost packets, fragmenting large messages, and
 * calculating checksums."
 *
 * This class models the board's hardware (Figure 8): the fiber I/O
 * port with its input queue, the DMA controller, on-board memory with
 * protection, hardware checksum and timers, and the SPARC CPU as a
 * timing resource.  The CAB *software* — kernel, datalink, transport
 * — lives in src/cabos, src/datalink and src/transport and drives
 * this hardware through the interface below.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cab/cost_model.hh"
#include "cab/cpu.hh"
#include "cab/memory.hh"
#include "cab/timers.hh"
#include "phys/fiber.hh"
#include "sim/component.hh"
#include "sim/stats.hh"

namespace nectar::cab {

/** CAB configuration. */
struct CabConfig
{
    /** Fiber input queue, same circuit as the HUB I/O port (§5.2). */
    std::uint32_t inputQueueBytes = sim::proto::hubInputQueueBytes;
    /** Wire chunk size used when streaming packet data. */
    std::uint32_t chunkBytes = 256;
    /** Software operation costs. */
    CabCostModel costs;
};

/** Counters exposed by the board. */
struct CabStats
{
    sim::Counter txPackets;   ///< Packets DMA'd onto the fiber.
    sim::Counter txBytes;     ///< Data bytes transmitted.
    sim::Counter rxPackets;   ///< Packets fully received.
    sim::Counter rxBytes;     ///< Data bytes received.
    sim::Counter rxDropped;   ///< Packets lost to input-queue overflow.
    sim::Counter strayItems;  ///< Commands/markers outside any packet
                              ///< (e.g. multicast route spillover).
    sim::Counter rxCorrupted; ///< Packets flagged by fault injection.
    sim::Counter framingErrors; ///< Start-of-packet seen mid-packet
                                ///< (lost end-of-packet marker).
};

/**
 * The CAB hardware.  One per node; attaches to a HUB port via a
 * fiber pair.
 */
class Cab : public sim::Component, public phys::FiberSink
{
  public:
    Cab(sim::EventQueue &eq, std::string name,
        const CabConfig &config = {});

    /** Attach the fiber this CAB transmits on (toward its HUB). */
    void attachTx(phys::FiberLink &link) { tx = &link; }

    phys::FiberLink *txLink() { return tx; }

    const CabConfig &config() const { return cfg; }
    const CabCostModel &costs() const { return cfg.costs; }

    CpuResource &cpu() { return _cpu; }
    CabMemory &memory() { return mem; }
    HwTimers &timers() { return _timers; }
    CabStats &stats() { return _stats; }

    // ----- Transmit path (DMA controller, Section 5.1) -------------

    /** CPU-issued command word (route setup, status queries). */
    void sendControl(const phys::WireItem &item);

    /** Insert a ready signal (cycle-stealing) toward the HUB. */
    void sendReady();

    /**
     * DMA a frame — an ordered sequence of wire items (commands,
     * framing, data chunks) — onto the outgoing fiber.
     *
     * "The DMA controller is able to manage simultaneous data
     * transfers between the incoming and outgoing fibers and CAB
     * memory" (Section 5.1): transmission proceeds without the CPU;
     * @p onDone fires when the last byte has been serialized.
     */
    void dmaSend(std::vector<phys::WireItem> items,
                 sim::EventFn onDone = {});

    /** Convenience: split @p payload into chunks between SOP/EOP. */
    std::vector<phys::WireItem> framePacket(phys::Payload payload);

    // ----- Receive path ---------------------------------------------

    /**
     * Interrupt delivered when a start-of-packet arrives.  The
     * datalink software must call acceptPacket() before the input
     * queue overflows ("The transport layer upcalls must determine
     * the destination mailbox and return to the datalink layer before
     * incoming data overflows the CAB input queue", Section 6.2.1).
     */
    std::function<void()> onPacketStart;

    /** A reply word arrived (route setup acknowledgments). */
    std::function<void(const phys::ReplyWord &)> onReply;

    /** A ready signal arrived (HUB queue drained; flow control). */
    std::function<void()> onReadySignal;

    /** A packet was fully received and accepted.  The view chains
     *  the received chunks' buffers — contiguous chunks of one
     *  packet coalesce back into a single segment, so no bytes are
     *  copied on the receive path. */
    std::function<void(sim::PacketView &&, bool corrupted)>
        onPacketComplete;

    /** A packet was lost to input-queue overflow. */
    std::function<void()> onPacketDropped;

    /**
     * Software supplies a destination buffer: start the receive DMA,
     * draining the input queue and signalling readiness upstream.
     *
     * The accept belongs to the packet whose start raised the
     * interrupt, identified by @p generation (rxGeneration() at
     * onPacketStart time).  If a new start of packet has replaced
     * that packet in the meantime — back-to-back packets racing the
     * upcall latency — the stale accept is ignored; the new packet's
     * own interrupt carries its own accept.
     */
    void acceptPacket(std::uint64_t generation);

    /** Accept whatever packet is currently in the receive window. */
    void acceptPacket() { acceptPacket(rx.generation); }

    /** Identity of the packet currently being received. */
    std::uint64_t rxGeneration() const { return rx.generation; }

    /** Bytes sitting in the fiber input queue right now. */
    std::uint32_t inputQueueBytes() const { return rx.queuedBytes; }

    // FiberSink: the HUB's outgoing fiber delivers here.
    void fiberDeliver(phys::WireItem item, Tick firstByte,
                      Tick lastByte) override;

  private:
    struct RxState
    {
        bool inPacket = false;
        bool accepted = false;
        bool overflowed = false;
        bool corrupted = false;
        bool eopSeen = false;
        std::uint32_t queuedBytes = 0;
        /** Monotonic packet identity; survives RxState resets. */
        std::uint64_t generation = 0;
        sim::PacketView buf;
        std::vector<phys::WireItem> pending;
    };

    void completeRx();

    CabConfig cfg;
    phys::FiberLink *tx = nullptr;
    CpuResource _cpu;
    CabMemory mem;
    HwTimers _timers;
    CabStats _stats;
    RxState rx;
};

} // namespace nectar::cab
