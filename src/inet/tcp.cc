#include "tcp.hh"

#include <algorithm>

#include "cab/checksum.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace nectar::inet {

namespace {

void
put16(std::vector<std::uint8_t> &v, std::size_t off, std::uint16_t x)
{
    v[off] = static_cast<std::uint8_t>(x >> 8);
    v[off + 1] = static_cast<std::uint8_t>(x);
}

void
put32(std::vector<std::uint8_t> &v, std::size_t off, std::uint32_t x)
{
    v[off] = static_cast<std::uint8_t>(x >> 24);
    v[off + 1] = static_cast<std::uint8_t>(x >> 16);
    v[off + 2] = static_cast<std::uint8_t>(x >> 8);
    v[off + 3] = static_cast<std::uint8_t>(x);
}

std::uint16_t
get16(const std::uint8_t *v, std::size_t off)
{
    return static_cast<std::uint16_t>((v[off] << 8) | v[off + 1]);
}

std::uint32_t
get32(const std::uint8_t *v, std::size_t off)
{
    return (static_cast<std::uint32_t>(v[off]) << 24) |
           (static_cast<std::uint32_t>(v[off + 1]) << 16) |
           (static_cast<std::uint32_t>(v[off + 2]) << 8) |
           static_cast<std::uint32_t>(v[off + 3]);
}

/** Checksum the 20-byte header (field zeroed) + payload segments. */
std::uint16_t
segmentChecksum(const std::uint8_t *hdr, const sim::PacketView &pl)
{
    cab::ChecksumAccumulator acc;
    acc.feed(hdr, TcpHeader::wireSize);
    pl.forEachSegment([&](const std::uint8_t *p, std::size_t n) {
        acc.feed(p, n);
    });
    return acc.finish();
}

} // namespace

const char *
tcpStateName(TcpState s)
{
    switch (s) {
      case TcpState::closed: return "CLOSED";
      case TcpState::listen: return "LISTEN";
      case TcpState::synSent: return "SYN_SENT";
      case TcpState::synRcvd: return "SYN_RCVD";
      case TcpState::established: return "ESTABLISHED";
      case TcpState::finWait1: return "FIN_WAIT_1";
      case TcpState::finWait2: return "FIN_WAIT_2";
      case TcpState::closeWait: return "CLOSE_WAIT";
      case TcpState::lastAck: return "LAST_ACK";
    }
    return "?";
}

sim::PacketView
encodeTcp(TcpHeader h, const sim::PacketView &pl)
{
    std::vector<std::uint8_t> hdr(TcpHeader::wireSize, 0);
    put16(hdr, 0, h.srcPort);
    put16(hdr, 2, h.dstPort);
    put32(hdr, 4, h.seq);
    put32(hdr, 8, h.ack);
    hdr[12] = 0x50; // data offset 5 words
    hdr[13] = h.flags;
    put16(hdr, 14, h.window);
    // checksum at 16 computed with the field zero; the payload is
    // streamed behind the header, never copied.
    put16(hdr, 16, segmentChecksum(hdr.data(), pl));
    return sim::PacketView::concat(sim::PacketView(std::move(hdr)), pl);
}

std::optional<TcpHeader>
decodeTcp(const sim::PacketView &packet, sim::PacketView &payload)
{
    if (packet.size() < TcpHeader::wireSize)
        return std::nullopt;

    std::uint8_t hdr[TcpHeader::wireSize];
    packet.read(0, hdr, TcpHeader::wireSize);
    if (hdr[12] != 0x50)
        return std::nullopt; // options unsupported

    TcpHeader h;
    h.srcPort = get16(hdr, 0);
    h.dstPort = get16(hdr, 2);
    h.seq = get32(hdr, 4);
    h.ack = get32(hdr, 8);
    h.flags = hdr[13];
    h.window = get16(hdr, 14);
    h.checksum = get16(hdr, 16);

    payload = packet.slice(TcpHeader::wireSize);
    hdr[16] = 0;
    hdr[17] = 0;
    if (segmentChecksum(hdr, payload) != h.checksum) {
        payload = sim::PacketView{};
        return std::nullopt;
    }
    return h;
}

// --------------------------------------------------------------------
// Tcp layer.
// --------------------------------------------------------------------

Tcp::Tcp(IpLayer &ip, const TcpConfig &config)
    : sim::Component(ip.kernel().eventq(),
                     ip.kernel().board().name() + ".tcp"),
      _ip(ip), cfg(config)
{
    ip.registerProtocol(
        proto::tcp,
        [this](const Ipv4Header &h, sim::PacketView &&pl) {
            onIp(h, std::move(pl));
        });
}

void
Tcp::sendRst(const Ipv4Header &iph, const TcpHeader &h)
{
    TcpHeader rst;
    rst.srcPort = h.dstPort;
    rst.dstPort = h.srcPort;
    rst.seq = h.ack;
    rst.ack = h.seq + 1;
    rst.flags = tcpflags::rst | tcpflags::ack;
    _stats.resetsSent.add();
    sim::spawn([](IpLayer &ip, IpAddress dst,
                  sim::PacketView seg) -> sim::Task<void> {
        co_await ip.send(dst, proto::tcp, std::move(seg));
    }(_ip, iph.src, encodeTcp(rst, sim::PacketView{})));
}

void
Tcp::onIp(const Ipv4Header &iph, sim::PacketView &&pl)
{
    sim::PacketView payload;
    auto h = decodeTcp(pl, payload);
    if (!h) {
        _stats.badSegments.add();
        return;
    }
    _stats.segmentsReceived.add();

    auto it = sockets.find(key(h->dstPort, iph.src, h->srcPort));
    if (it != sockets.end()) {
        it->second->segmentArrived(*h, std::move(payload));
        return;
    }

    // No connection: a SYN to a listening port creates one.
    auto lit = listeners.find(h->dstPort);
    if (lit != listeners.end() && (h->flags & tcpflags::syn) &&
        !lit->second.pending) {
        auto sock = std::make_unique<TcpSocket>(*this, h->dstPort,
                                                iph.src, h->srcPort);
        TcpSocket *raw = sock.get();
        sockets.emplace(key(h->dstPort, iph.src, h->srcPort),
                        std::move(sock));
        raw->iss = nextIss;
        nextIss += 64000;
        raw->sndUna = raw->sndNxt = raw->iss;
        raw->rcvNxt = h->seq + 1;
        raw->_state = TcpState::synRcvd;
        raw->transmitSegment(tcpflags::syn | tcpflags::ack, raw->iss,
                             {});
        raw->sndNxt = raw->iss + 1; // SYN consumes one sequence number
        raw->armTimer();
        _stats.connectionsAccepted.add();
        lit->second.pending = raw;
        return;
    }
    if (!(h->flags & tcpflags::rst))
        sendRst(iph, *h);
}

sim::Task<TcpSocket *>
Tcp::accept(std::uint16_t port)
{
    Listener &l = listeners[port];
    TcpSocket *sock = nullptr;
    for (;;) {
        if (l.pending &&
            l.pending->state() == TcpState::established) {
            sock = l.pending;
            l.pending = nullptr;
            break;
        }
        co_await sim::ParkOn{l.waiters};
    }
    co_return sock;
}

sim::Task<TcpSocket *>
Tcp::connect(IpAddress dst, std::uint16_t dstPort)
{
    std::uint16_t lport = nextEphemeral++;
    auto sock = std::make_unique<TcpSocket>(*this, lport, dst, dstPort);
    TcpSocket *raw = sock.get();
    sockets.emplace(key(lport, dst, dstPort), std::move(sock));

    raw->iss = nextIss;
    nextIss += 64000;
    raw->sndUna = raw->sndNxt = raw->iss;
    raw->_state = TcpState::synSent;
    raw->transmitSegment(tcpflags::syn, raw->iss, {});
    raw->sndNxt = raw->iss + 1;
    raw->armTimer();
    _stats.connectionsOpened.add();

    // Wait for establishment or failure, bounded by connectTimeout.
    sim::EventId deadline = eventq().scheduleIn(
        cfg.connectTimeout, [raw] {
            if (raw->state() == TcpState::synSent) {
                raw->fail();
            }
        });
    while (raw->state() == TcpState::synSent && !raw->failed)
        co_await sim::ParkOn{raw->waiters};
    eventq().cancel(deadline);

    if (raw->failed)
        co_return nullptr;
    co_return raw;
}

// --------------------------------------------------------------------
// TcpSocket.
// --------------------------------------------------------------------

TcpSocket::TcpSocket(Tcp &tcp, std::uint16_t localPort, IpAddress peerIp,
                     std::uint16_t peerPort)
    : tcp(tcp), lport(localPort), peer(peerIp), pport(peerPort)
{
}

void
TcpSocket::wakeAll()
{
    auto list = std::move(waiters);
    waiters.clear();
    for (auto h : list) {
        tcp.eventq().scheduleIn(sim::ticks::immediate,
                                [h] { h.resume(); },
                                sim::EventPriority::software);
    }
    // Listener-side accept() parks on the listener, not the socket.
    auto lit = tcp.listeners.find(lport);
    if (lit != tcp.listeners.end()) {
        auto ws = std::move(lit->second.waiters);
        lit->second.waiters.clear();
        for (auto h : ws) {
            tcp.eventq().scheduleIn(sim::ticks::immediate,
                                [h] { h.resume(); },
                                    sim::EventPriority::software);
        }
    }
}

void
TcpSocket::fail()
{
    failed = true;
    _state = TcpState::closed;
    if (tcp.eventq().pending(timer))
        tcp.eventq().cancel(timer);
    inflight.clear();
    wakeAll();
}

void
TcpSocket::transmitSegment(std::uint8_t flags, std::uint32_t seq,
                           sim::PacketView payload)
{
    TcpHeader h;
    h.srcPort = lport;
    h.dstPort = pport;
    h.seq = seq;
    h.ack = rcvNxt;
    h.flags = flags;
    h.window = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(tcp.cfg.window, 0xFFFF));
    tcp._stats.segmentsSent.add();
    sim::spawn([](IpLayer &ip, IpAddress dst,
                  sim::PacketView seg) -> sim::Task<void> {
        co_await ip.send(dst, proto::tcp, std::move(seg));
    }(tcp._ip, peer, encodeTcp(h, payload)));
    // The retransmission store keeps a view of the payload, not a
    // second copy of the bytes.
    if ((flags & (tcpflags::syn | tcpflags::fin)) || !payload.empty())
        inflight[seq] = {flags, std::move(payload)};
}

void
TcpSocket::armTimer()
{
    if (tcp.eventq().pending(timer))
        tcp.eventq().cancel(timer);
    timer = tcp.eventq().scheduleIn(tcp.cfg.rto,
                                    [this] { onTimeout(); },
                                    sim::EventPriority::software);
}

void
TcpSocket::onTimeout()
{
    if (inflight.empty())
        return;
    if (++timeouts > tcp.cfg.maxRetransmits) {
        fail();
        return;
    }
    for (auto &[seq, seg] : inflight) {
        tcp._stats.retransmissions.add();
        TcpHeader h;
        h.srcPort = lport;
        h.dstPort = pport;
        h.seq = seq;
        h.ack = rcvNxt;
        h.flags = seg.first; // resend with the original flags
        h.window = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(tcp.cfg.window, 0xFFFF));
        tcp._stats.segmentsSent.add();
        sim::spawn([](IpLayer &ip, IpAddress dst,
                      sim::PacketView segv) -> sim::Task<void> {
            co_await ip.send(dst, proto::tcp, std::move(segv));
        }(tcp._ip, peer, encodeTcp(h, seg.second)));
    }
    armTimer();
}

void
TcpSocket::pump()
{
    if (_state != TcpState::established &&
        _state != TcpState::closeWait)
        return;
    // Window: at most cfg.window unacknowledged bytes.
    while (!sendBuf.empty() &&
           sndNxt - sndUna < tcp.cfg.window) {
        std::uint32_t n = std::min<std::uint32_t>(
            {tcp.cfg.mss,
             static_cast<std::uint32_t>(sendBuf.size()),
             tcp.cfg.window - (sndNxt - sndUna)});
        std::vector<std::uint8_t> seg(sendBuf.begin(),
                                      sendBuf.begin() + n);
        sendBuf.erase(sendBuf.begin(), sendBuf.begin() + n);
        transmitSegment(tcpflags::ack | tcpflags::psh, sndNxt,
                        std::move(seg));
        sndNxt += n;
        armTimer();
    }
    // A queued FIN goes out once the buffer drains.
    if (finQueued && sendBuf.empty()) {
        finQueued = false;
        finSeq = sndNxt;
        transmitSegment(tcpflags::fin | tcpflags::ack, sndNxt, {});
        sndNxt += 1;
        if (_state == TcpState::established)
            _state = TcpState::finWait1;
        else if (_state == TcpState::closeWait)
            _state = TcpState::lastAck;
        armTimer();
    }
}

void
TcpSocket::segmentArrived(const TcpHeader &h,
                          sim::PacketView &&payload)
{
    if (h.flags & tcpflags::rst) {
        fail();
        return;
    }

    // --- Handshake transitions.
    if (_state == TcpState::synSent) {
        if ((h.flags & tcpflags::syn) && (h.flags & tcpflags::ack) &&
            h.ack == iss + 1) {
            rcvNxt = h.seq + 1;
            sndUna = h.ack;
            inflight.clear();
            timeouts = 0;
            if (tcp.eventq().pending(timer))
                tcp.eventq().cancel(timer);
            _state = TcpState::established;
            transmitSegment(tcpflags::ack, sndNxt, {});
            wakeAll();
        }
        return;
    }
    if (_state == TcpState::synRcvd) {
        if ((h.flags & tcpflags::ack) && h.ack == iss + 1) {
            sndUna = h.ack;
            inflight.clear();
            timeouts = 0;
            if (tcp.eventq().pending(timer))
                tcp.eventq().cancel(timer);
            _state = TcpState::established;
            wakeAll();
            // Fall through: the ACK may carry data.
        } else {
            return;
        }
    }

    // --- ACK processing.
    if (h.flags & tcpflags::ack) {
        if (h.ack > sndUna && h.ack <= sndNxt) {
            sndUna = h.ack;
            timeouts = 0;
            while (!inflight.empty() &&
                   inflight.begin()->first < sndUna) {
                // Fully acked only if seq + len <= sndUna.
                auto it = inflight.begin();
                std::uint32_t len = std::max<std::uint32_t>(
                    1, static_cast<std::uint32_t>(it->second.second
                                                      .size()));
                if (it->first + len <= sndUna)
                    inflight.erase(it);
                else
                    break;
            }
            if (inflight.empty()) {
                if (tcp.eventq().pending(timer))
                    tcp.eventq().cancel(timer);
            } else {
                armTimer();
            }
            if (_state == TcpState::finWait1 && sndUna == sndNxt)
                _state = TcpState::finWait2;
            if (_state == TcpState::lastAck && sndUna == sndNxt) {
                _state = TcpState::closed;
            }
            wakeAll();
            pump();
        }
    }

    // --- In-order data.
    bool advanced = false;
    if (!payload.empty()) {
        if (h.seq == rcvNxt) {
            // The byte stream boundary: segment bytes merge into the
            // in-order receive buffer here (a counted copy).
            payload.forEachSegment(
                [&](const std::uint8_t *p, std::size_t n) {
                    recvBuf.insert(recvBuf.end(), p, p + n);
                });
            sim::accountCopy(payload.size());
            rcvNxt += static_cast<std::uint32_t>(payload.size());
            advanced = true;
            wakeAll();
        }
        // Out-of-order / duplicate: drop; the ack below resynchronizes.
    }

    // --- FIN.
    if ((h.flags & tcpflags::fin) && h.seq == rcvNxt) {
        rcvNxt += 1;
        peerClosed = true;
        advanced = true;
        if (_state == TcpState::established)
            _state = TcpState::closeWait;
        else if (_state == TcpState::finWait2)
            _state = TcpState::closed; // TIME_WAIT elided
        wakeAll();
    }

    if (advanced || !payload.empty())
        transmitSegment(tcpflags::ack, sndNxt, {});
}

sim::Task<bool>
TcpSocket::send(std::vector<std::uint8_t> data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        if (failed || (_state != TcpState::established &&
                       _state != TcpState::closeWait))
            co_return false;
        // Bounded send buffer: one window's worth of unsent bytes.
        if (sendBuf.size() >= tcp.cfg.window) {
            co_await sim::ParkOn{waiters};
            continue;
        }
        std::size_t n = std::min<std::size_t>(
            tcp.cfg.window - sendBuf.size(), data.size() - off);
        sendBuf.insert(sendBuf.end(), data.begin() + off,
                       data.begin() + off + n);
        off += n;
        pump();
    }
    // Block until everything is acknowledged (write-through
    // semantics keep the examples and benches simple to reason
    // about).
    bool blocked = false;
    while (!failed && (sndUna != sndNxt || !sendBuf.empty())) {
        blocked = true;
        co_await sim::ParkOn{waiters};
    }
    if (blocked) {
        auto &k = tcp._ip.kernel();
        k.noteThreadSwitch();
        co_await k.board().cpu().compute(k.costs().threadSwitch);
    }
    co_return !failed;
}

sim::Task<std::vector<std::uint8_t>>
TcpSocket::receive(std::size_t maxBytes)
{
    bool blocked = false;
    while (recvBuf.empty() && !peerClosed && !failed) {
        blocked = true;
        co_await sim::ParkOn{waiters};
    }
    if (blocked) {
        // A blocked reader is a kernel thread being rescheduled:
        // charge the context switch, as the native stack does.
        auto &k = tcp._ip.kernel();
        k.noteThreadSwitch();
        co_await k.board().cpu().compute(k.costs().threadSwitch);
    }
    std::size_t n = std::min(maxBytes, recvBuf.size());
    std::vector<std::uint8_t> out(recvBuf.begin(),
                                  recvBuf.begin() + n);
    recvBuf.erase(recvBuf.begin(), recvBuf.begin() + n);
    co_return out;
}

sim::Task<void>
TcpSocket::close()
{
    if (_state == TcpState::established ||
        _state == TcpState::closeWait) {
        finQueued = true;
        pump();
    }
    while (!failed && _state != TcpState::closed &&
           _state != TcpState::finWait2)
        co_await sim::ParkOn{waiters};
}

} // namespace nectar::inet
