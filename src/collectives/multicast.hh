/**
 * @file
 * Reliable multicast policy and the collective wire format.
 *
 * The transport layer provides sendReliableMulticast(): one packet
 * through a HUB hardware multicast tree when the fabric allows it,
 * per-member unicast fan-out otherwise, NACK/retransmit per receiver
 * either way.  This layer adds the *policy* knob (force hardware
 * off for A/B measurement) and the 16-byte collective message header
 * that rides inside the transport payload — group id, epoch, rank,
 * operation sequence and kind — so receivers can demultiplex and
 * reorder collective traffic arriving FIFO in the group mailbox.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "sim/buffer.hh"

namespace nectar::collective {

/** Which fabric path a multicast is allowed to take. */
enum class McastPath : std::uint8_t {
    automatic, ///< Hardware tree when routable; unicast fallback.
    unicast,   ///< Force per-member unicast fan-out (baseline).
};

// ----- Collective message format ------------------------------------

/** Collective message kinds. */
enum class MsgKind : std::uint8_t {
    reduceUp = 1,   ///< Partial result up the binomial tree.
    bcast = 2,      ///< Root broadcast payload.
    rdExchange = 3, ///< Recursive-doubling exchange (param = round).
    slice = 4,      ///< Owned slice allgather (param = owner rank).
    gatherUp = 5,   ///< Contribution direct to the gather root.
    barrierUp = 6,  ///< Barrier arrival up the binomial tree.
    release = 7,    ///< Root barrier release.
};

/**
 * The header prepended to every collective payload.  The transport
 * tag field carries the transport's own message id, so collective
 * demultiplexing state travels in-band, serialized big-endian.
 */
struct WireHeader
{
    std::uint32_t gid = 0;
    std::uint16_t epoch = 0;
    std::uint16_t srcRank = 0;
    std::uint32_t opSeq = 0;
    MsgKind kind = MsgKind::bcast;
    std::uint8_t param = 0;
    std::uint16_t reserved = 0;

    static constexpr std::uint32_t wireSize = 16;
};

/**
 * Serialize @p h into a fresh (pooled) 16-byte buffer and chain
 * @p payload behind it — payload bytes are shared, never copied.
 */
sim::PacketView makeCollectiveMessage(const WireHeader &h,
                                      sim::PacketView payload);

/**
 * Parse a received collective message.  Header fields are read
 * through the view; the payload comes back as a slice of @p msg.
 * Returns nullopt when @p msg is too short to be a collective
 * message.
 */
std::optional<std::pair<WireHeader, sim::PacketView>>
parseCollectiveMessage(const sim::PacketView &msg);

} // namespace nectar::collective
