/**
 * @file
 * Unit tests for the CAB hardware model: checksum unit, memory
 * protection, on-board memory, and the fiber RX/TX datapath.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "cab/cab.hh"
#include "cab/checksum.hh"
#include "helpers/test_endpoint.hh"
#include "phys/fiber.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

using namespace nectar;
using namespace nectar::cab;
using nectar::test::TestEndpoint;
using phys::ItemKind;
using phys::WireItem;
using sim::Tick;
using sim::ticks::us;

// ----- Checksum ----------------------------------------------------

TEST(Checksum, KnownVector)
{
    // Classic IP-header example folded to our byte-wise interface.
    std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5,
                                   0xf6, 0xf7};
    EXPECT_EQ(checksum16(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero)
{
    std::vector<std::uint8_t> even{0xAB, 0x00};
    std::vector<std::uint8_t> odd{0xAB};
    EXPECT_EQ(checksum16(even), checksum16(odd));
}

TEST(Checksum, DetectsSingleByteCorruption)
{
    std::vector<std::uint8_t> data(64);
    std::iota(data.begin(), data.end(), std::uint8_t(1));
    auto base = checksum16(data);
    data[13] ^= 0x40;
    EXPECT_NE(checksum16(data), base);
}

TEST(Checksum, NeverReturnsZero)
{
    // The all-0xFF buffer sums to 0xFFFF whose complement is 0.
    std::vector<std::uint8_t> data(10, 0xFF);
    EXPECT_EQ(checksum16(data), 0xFFFF);
}

TEST(Checksum, EmptyBuffer)
{
    EXPECT_EQ(checksum16(nullptr, 0), 0xFFFF);
}

// ----- Memory protection --------------------------------------------

TEST(Protection, KernelDomainStartsWithFullAccess)
{
    MemoryProtection p(64 * 1024);
    EXPECT_TRUE(p.check(kernelDomain, 0, 64 * 1024, permAll));
}

TEST(Protection, UserDomainStartsWithNoAccess)
{
    MemoryProtection p(64 * 1024);
    EXPECT_FALSE(p.check(1, 0, 4, permRead));
    EXPECT_EQ(p.violations(), 1u);
}

TEST(Protection, GrantAndRevokePageRange)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(2, 4096, 2048, permRW);
    EXPECT_TRUE(p.check(2, 4096, 2048, permRead));
    EXPECT_TRUE(p.check(2, 5000, 100, permWrite));
    EXPECT_FALSE(p.check(2, 4096, 100, permExec));
    // Pages outside the grant remain protected.
    EXPECT_FALSE(p.check(2, 0, 4, permRead));
    EXPECT_FALSE(p.check(2, 8192, 4, permRead));
    p.setPerms(2, 4096, 2048, permNone);
    EXPECT_FALSE(p.check(2, 4096, 4, permRead));
}

TEST(Protection, PageGranularityIsOneKilobyte)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(3, 1024, 1, permRead); // one byte grants its page
    EXPECT_TRUE(p.check(3, 2047, 1, permRead));
    EXPECT_FALSE(p.check(3, 2048, 1, permRead));
    EXPECT_FALSE(p.check(3, 1023, 1, permRead));
}

TEST(Protection, CrossPageAccessNeedsAllPages)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(4, 0, 1024, permRW);
    // Access straddling into an unprotected page fails.
    EXPECT_FALSE(p.check(4, 1000, 100, permWrite));
}

TEST(Protection, DomainsAreIsolated)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(5, 0, 1024, permAll);
    EXPECT_TRUE(p.check(5, 0, 8, permExec));
    EXPECT_FALSE(p.check(6, 0, 8, permRead));
}

TEST(Protection, ClearDomainRevokesEverything)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(7, 0, 32 * 1024, permAll);
    p.clearDomain(7);
    EXPECT_FALSE(p.check(7, 0, 4, permRead));
}

TEST(Protection, OutOfSpaceAccessFails)
{
    MemoryProtection p(64 * 1024);
    EXPECT_FALSE(p.check(kernelDomain, 63 * 1024, 2048, permRead));
}

TEST(Protection, ThirtyTwoDomainsSupported)
{
    MemoryProtection p(1024 * 1024);
    EXPECT_EQ(p.numDomains(), 32);
    p.setPerms(31, 0, 1024, permRW); // the VME domain
    EXPECT_TRUE(p.check(vmeDomain, 0, 8, permWrite));
}

// ----- CAB memory ----------------------------------------------------

TEST(CabMemory, DataRamRoundTrip)
{
    CabMemory mem;
    // A write into data RAM and a read back of the same range are
    // both accepted, and both count towards the CPU's bytes.
    EXPECT_TRUE(mem.access(kernelDomain, addrmap::dataRamBase, 4,
                           permWrite));
    EXPECT_TRUE(mem.access(kernelDomain, addrmap::dataRamBase, 4,
                           permRead));
    EXPECT_EQ(mem.busErrors(), 0u);
    EXPECT_EQ(mem.bytesBy(Accessor::cpu), 8u);
}

TEST(CabMemory, PromRejectsWrites)
{
    CabMemory mem;
    // A PROM write is a bus error even for the kernel, whose
    // protection tables grant everything.
    EXPECT_FALSE(mem.access(kernelDomain, addrmap::promBase, 1,
                            permWrite));
    EXPECT_EQ(mem.busErrors(), 1u);
    EXPECT_EQ(mem.totalBytes(), 0u);
}

TEST(CabMemory, LoadPromThenRead)
{
    CabMemory mem;
    // The PROM is read-only, not unmapped: a read from inside it is
    // accepted and counted.
    EXPECT_TRUE(mem.access(kernelDomain, addrmap::promBase + 16, 2,
                           permRead));
    EXPECT_EQ(mem.busErrors(), 0u);
    EXPECT_EQ(mem.totalBytes(), 2u);
}

TEST(CabMemory, UnmappedHoleIsBusError)
{
    CabMemory mem;
    // Between program RAM (ends 0xA0000) and data RAM (0x100000).
    EXPECT_FALSE(mem.access(kernelDomain, 0xC0000, 1, permRead));
    EXPECT_EQ(mem.busErrors(), 1u);
    EXPECT_EQ(mem.totalBytes(), 0u);
}

TEST(CabMemory, UserDomainNeedsGrant)
{
    CabMemory mem;
    EXPECT_FALSE(mem.access(3, addrmap::dataRamBase, 1, permWrite));
    // A protection violation is not a bus error, and moves no bytes.
    EXPECT_EQ(mem.busErrors(), 0u);
    EXPECT_EQ(mem.totalBytes(), 0u);
    // The check asks for the permission the access needs.
    mem.protection().setPerms(3, addrmap::dataRamBase, 1024, permRead);
    EXPECT_TRUE(mem.access(3, addrmap::dataRamBase, 1, permRead));
    EXPECT_FALSE(mem.access(3, addrmap::dataRamBase, 1, permWrite));
    mem.protection().setPerms(3, addrmap::dataRamBase, 1024, permRW);
    EXPECT_TRUE(mem.access(3, addrmap::dataRamBase, 1, permWrite));
}

TEST(CabMemory, AccountingTracksAccessors)
{
    CabMemory mem;
    EXPECT_TRUE(mem.access(kernelDomain, addrmap::dataRamBase, 64,
                           permWrite, Accessor::cpu));
    EXPECT_TRUE(mem.access(kernelDomain, addrmap::dataRamBase, 4,
                           permRead));
    mem.account(Accessor::fiberInDma, 128);
    mem.account(Accessor::vmeDma, 256);
    EXPECT_EQ(mem.bytesBy(Accessor::cpu), 68u);
    EXPECT_EQ(mem.bytesBy(Accessor::fiberInDma), 128u);
    EXPECT_EQ(mem.bytesBy(Accessor::vmeDma), 256u);
    EXPECT_EQ(mem.totalBytes(), 452u);
}

// ----- CAB datapath --------------------------------------------------

class CabDatapath : public ::testing::Test
{
  protected:
    CabDatapath()
        : board(eq, "cab0"), peer(eq),
          toCab(eq, "peer->cab"), toPeer(eq, "cab->peer")
    {
        toCab.connectTo(board);
        toPeer.connectTo(peer);
        board.attachTx(toPeer);
        peer.attachTx(toCab);
    }

    sim::EventQueue eq;
    Cab board;
    TestEndpoint peer;   // stands in for the HUB side
    phys::FiberLink toCab;
    phys::FiberLink toPeer;
};

TEST_F(CabDatapath, ReceivesAcceptedPacket)
{
    std::vector<std::uint8_t> got;
    board.onPacketStart = [&] { board.acceptPacket(); };
    board.onPacketComplete = [&](sim::PacketView &&bytes,
                                 bool corrupted) {
        EXPECT_FALSE(corrupted);
        got = bytes.toVector();
    };

    std::vector<std::uint8_t> payload(300);
    std::iota(payload.begin(), payload.end(), std::uint8_t(0));
    peer.sendPacket(payload);
    eq.run();
    EXPECT_EQ(got, payload);
    EXPECT_EQ(board.stats().rxPackets.value(), 1u);
    EXPECT_EQ(board.stats().rxBytes.value(), 300u);
    // Accepting drained the queue: a ready signal went upstream.
    EXPECT_EQ(peer.countKind(ItemKind::readySignal), 1u);
}

TEST_F(CabDatapath, UnacceptedOversizePacketOverflows)
{
    bool dropped = false;
    board.onPacketDropped = [&] { dropped = true; };
    // No acceptPacket: software is "too slow" (Section 6.2.1).
    peer.sendPacket(std::vector<std::uint8_t>(2048, 7));
    eq.run();
    EXPECT_TRUE(dropped);
    EXPECT_EQ(board.stats().rxDropped.value(), 1u);
    EXPECT_EQ(board.stats().rxPackets.value(), 0u);
}

TEST_F(CabDatapath, LateAcceptStillCompletesSmallPacket)
{
    std::vector<std::uint8_t> got;
    board.onPacketComplete = [&](sim::PacketView &&bytes,
                                 bool) { got = bytes.toVector(); };
    // Accept 50 us after the packet started: it fits in the queue.
    board.onPacketStart = [&] {
        eq.scheduleIn(50 * us, [&] { board.acceptPacket(); });
    };
    std::vector<std::uint8_t> payload(512, 0x42);
    peer.sendPacket(payload);
    eq.run();
    EXPECT_EQ(got, payload);
}

TEST_F(CabDatapath, RepliesAndReadySignalsAreDelivered)
{
    int replies = 0, readies = 0;
    board.onReply = [&](const phys::ReplyWord &) { ++replies; };
    board.onReadySignal = [&] { ++readies; };
    toCab.send(WireItem::makeReply(1, 0, 2, 1));
    toCab.sendStolen(WireItem::ready());
    eq.run();
    EXPECT_EQ(replies, 1);
    EXPECT_EQ(readies, 1);
}

TEST_F(CabDatapath, StrayCommandsCounted)
{
    // Multicast route spillover (Section 4.2.2): commands for other
    // HUBs can reach a terminal CAB; it discards them.
    toCab.send(WireItem::command(0x02, 3, 4));
    eq.run();
    EXPECT_EQ(board.stats().strayItems.value(), 1u);
}

TEST_F(CabDatapath, DmaSendSerializesAtFiberRate)
{
    auto payload = phys::makePayload(
        std::vector<std::uint8_t>(1000, 0xAA));
    auto items = board.framePacket(payload);
    Tick done_at = -1;
    board.dmaSend(std::move(items), [&] { done_at = eq.now(); });
    eq.run();
    // SOP(1) + 1000 data + EOP(1) = 1002 bytes at 80 ns/byte.
    EXPECT_EQ(done_at, 1002 * 80);
    EXPECT_EQ(board.stats().txPackets.value(), 1u);
    EXPECT_EQ(board.stats().txBytes.value(), 1000u);
    EXPECT_EQ(peer.dataBytes(), 1000u);
    // The outgoing DMA was accounted against data memory.
    EXPECT_EQ(board.memory().bytesBy(Accessor::fiberOutDma), 1000u);
}

TEST_F(CabDatapath, DownTxFiberStaysDownAndCarriesNothing)
{
    // Sending on a dark fiber must neither revive it nor leak an
    // item: link state belongs to the fault plan, not to the board.
    toPeer.setLinkUp(false);
    board.sendControl(WireItem::command(0x02, 0, 1));
    auto payload = phys::makePayload(std::vector<std::uint8_t>(64, 1));
    bool done = false;
    board.dmaSend(board.framePacket(payload), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(toPeer.linkUp());
    EXPECT_TRUE(peer.received.empty());
    EXPECT_EQ(toPeer.itemsDroppedDown(), 4u);
}

TEST_F(CabDatapath, CorruptedChunkFlagsPacket)
{
    bool corrupted = false;
    board.onPacketStart = [&] { board.acceptPacket(); };
    board.onPacketComplete = [&](sim::PacketView &&,
                                 bool c) { corrupted = c; };
    toCab.send(WireItem::startPacket());
    auto p = phys::makePayload(std::vector<std::uint8_t>(64, 1));
    auto chunk = WireItem::dataChunk(p, 0, 64);
    chunk.corrupted = true;
    toCab.send(chunk);
    toCab.send(WireItem::endPacket());
    eq.run();
    EXPECT_TRUE(corrupted);
    EXPECT_EQ(board.stats().rxCorrupted.value(), 1u);
}
