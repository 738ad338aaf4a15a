#include "netstack.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nectar::node {

using transport::Header;
using transport::Proto;

NodeNetStack::NodeNetStack(Node &host, RawNet &net,
                           const StackConfig &config)
    : sim::Component(host.eventq(), host.name() + ".netstack"),
      host(host), net(net), cfg(config)
{
    net.rxRaw = [this](sim::PacketView &&packet) {
        onRawPacket(std::move(packet));
    };
}

NodeNetStack::SenderFlow &
NodeNetStack::flowTo(std::uint16_t peer, std::uint16_t port)
{
    auto k = key(peer, port);
    auto it = senders.find(k);
    if (it == senders.end()) {
        it = senders.emplace(k, std::make_unique<SenderFlow>(eventq()))
                 .first;
    }
    return *it->second;
}

void
NodeNetStack::wake(std::vector<std::coroutine_handle<>> &waiters)
{
    auto list = std::move(waiters);
    waiters.clear();
    for (auto h : list) {
        eventq().scheduleIn(sim::ticks::immediate, [h] { h.resume(); },
                            sim::EventPriority::software);
    }
}

sim::Task<void>
NodeNetStack::transmit(std::uint16_t dst, sim::PacketView pkt,
                       bool isAck)
{
    // In-kernel protocol processing on the host (acks are cheaper).
    Tick cost = isAck ? host.costs().protocolPerPacketSend / 4
                      : host.costs().protocolPerPacketSend;
    co_await host.cpu().compute(cost);
    _stats.packetsSent.add();
    co_await net.rawSend(dst, std::move(pkt));
}

void
NodeNetStack::armTimer(std::uint16_t peer, std::uint16_t port,
                       SenderFlow &flow)
{
    eventq().cancel(flow.timer);
    flow.timer = eventq().scheduleIn(
        cfg.retransmitTimeout,
        [this, peer, port] { onTimeout(peer, port); },
        sim::EventPriority::software);
}

void
NodeNetStack::onTimeout(std::uint16_t peer, std::uint16_t port)
{
    SenderFlow &flow = flowTo(peer, port);
    if (flow.unacked.empty())
        return;
    if (++flow.timeouts > cfg.maxRetransmits) {
        flow.failed = true;
        flow.unacked.clear();
        flow.base = flow.nextSeq;
        _stats.sendFailures.add();
        wake(flow.waiters);
        return;
    }
    for (const auto &[seq, pkt] : flow.unacked) {
        _stats.retransmissions.add();
        sim::spawn(transmit(peer, pkt, false));
    }
    armTimer(peer, port, flow);
}

sim::Task<bool>
NodeNetStack::sendMessage(std::uint16_t dst, std::uint16_t port,
                          sim::PacketView data)
{
    _stats.messagesSent.add();
    SenderFlow &flow = flowTo(dst, port);
    co_await flow.mutex.lock();
    flow.failed = false;
    flow.timeouts = 0;

    // The application's buffer crosses into the kernel.
    co_await host.copy(data.size());

    std::uint32_t msg_id = nextMsgId++;
    auto frag_count = static_cast<std::uint16_t>(
        std::max<std::size_t>(1, (data.size() + cfg.mtu - 1) / cfg.mtu));

    for (std::uint16_t i = 0; i < frag_count && !flow.failed; ++i) {
        while (!flow.failed &&
               flow.nextSeq - flow.base >= cfg.windowPackets)
            co_await sim::ParkOn{flow.waiters};
        if (flow.failed)
            break;

        std::size_t off = static_cast<std::size_t>(i) * cfg.mtu;
        std::size_t len = std::min<std::size_t>(cfg.mtu,
                                                data.size() - off);
        Header h;
        h.protocol = Proto::stream;
        h.srcCab = net.rawAddress();
        h.dstCab = dst;
        h.dstMailbox = port;
        h.seq = flow.nextSeq++;
        h.msgId = msg_id;
        h.fragIndex = i;
        h.fragCount = frag_count;
        if (i + 1 == frag_count)
            h.flags |= transport::flags::lastFragment;

        auto pkt = encodePacket(h, data.slice(off, len));
        flow.unacked.emplace(h.seq, pkt);
        armTimer(dst, port, flow);
        co_await transmit(dst, std::move(pkt), false);
    }

    while (!flow.failed && flow.base != flow.nextSeq)
        co_await sim::ParkOn{flow.waiters};

    bool ok = !flow.failed;
    flow.mutex.unlock();
    co_return ok;
}

void
NodeNetStack::onRawPacket(sim::PacketView &&packet)
{
    _stats.packetsReceived.add();
    sim::PacketView payload;
    auto h = transport::decodePacket(packet, payload);
    if (!h || h->dstCab != net.rawAddress()) {
        _stats.checksumDrops.add();
        return;
    }
    // In-kernel receive processing cost, then act.
    Tick cost = h->protocol == Proto::ack
                    ? host.costs().protocolPerPacketRecv / 4
                    : host.costs().protocolPerPacketRecv;
    Header header = *h;
    host.cpu().chargeThen(
        cost, [this, header, payload = std::move(payload)]() mutable {
            if (header.protocol == Proto::ack)
                handleAck(header);
            else if (header.protocol == Proto::stream)
                handleData(header, std::move(payload));
            else
                _stats.checksumDrops.add();
        });
}

void
NodeNetStack::sendAck(const Header &h, std::uint32_t next)
{
    Header ack;
    ack.protocol = Proto::ack;
    ack.srcCab = net.rawAddress();
    ack.dstCab = h.srcCab;
    ack.srcMailbox = h.dstMailbox;
    ack.ack = next;
    sim::spawn(transmit(h.srcCab,
                        encodePacket(ack, sim::PacketView{}), true));
}

void
NodeNetStack::handleData(const Header &h, sim::PacketView &&payload)
{
    ReceiverFlow &flow = receivers[key(h.srcCab, h.dstMailbox)];
    if (h.seq != flow.expected) {
        sendAck(h, flow.expected);
        return;
    }
    ++flow.expected;
    flow.assembly.append(payload);
    if (h.flags & transport::flags::lastFragment) {
        _stats.messagesDelivered.add();
        PortQueue &pq = ports[h.dstMailbox];
        pq.messages.push_back(std::move(flow.assembly));
        flow.assembly = sim::PacketView{};
        // Waking a blocked receiver is a process context switch.
        host.cpu().charge(host.costs().contextSwitch);
        wake(pq.waiters);
    }
    sendAck(h, flow.expected);
}

void
NodeNetStack::handleAck(const Header &h)
{
    SenderFlow &flow = flowTo(h.srcCab, h.srcMailbox);
    if (h.ack <= flow.base)
        return;
    flow.base = std::min(h.ack, flow.nextSeq);
    flow.timeouts = 0;
    while (!flow.unacked.empty() &&
           flow.unacked.begin()->first < flow.base)
        flow.unacked.erase(flow.unacked.begin());
    if (flow.unacked.empty()) {
        if (eventq().pending(flow.timer))
            eventq().cancel(flow.timer);
    } else {
        armTimer(h.srcCab, h.srcMailbox, flow);
    }
    wake(flow.waiters);
}

sim::Task<std::vector<std::uint8_t>>
NodeNetStack::receive(std::uint16_t port)
{
    PortQueue &pq = ports[port];
    while (pq.messages.empty())
        co_await sim::ParkOn{pq.waiters};
    auto msg = std::move(pq.messages.front());
    pq.messages.pop_front();
    // The message is copied up to the application (the one counted
    // materialization on this path).
    co_await host.copy(msg.size());
    co_return msg.toVector();
}

std::optional<std::vector<std::uint8_t>>
NodeNetStack::tryReceive(std::uint16_t port)
{
    PortQueue &pq = ports[port];
    if (pq.messages.empty())
        return std::nullopt;
    auto msg = std::move(pq.messages.front());
    pq.messages.pop_front();
    host.cpu().charge(static_cast<Tick>(
        static_cast<double>(msg.size()) * host.costs().copyPerByteNs));
    return msg.toVector();
}

} // namespace nectar::node
