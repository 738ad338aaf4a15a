#include "port.hh"

#include <algorithm>

#include "hub/commands.hh"
#include "hub/hub.hh"
#include "sim/logging.hh"

namespace nectar::hub {

using phys::ItemKind;
using phys::WireItem;

IoPort::IoPort(Hub &hub, PortId id, int queueCapacity)
    : sim::Component(hub.eventq(),
                     hub.name() + ".port" + std::to_string(id)),
      hub(hub), _id(id),
      qCapacity(static_cast<std::uint32_t>(queueCapacity))
{
}

void
IoPort::setReady(bool r)
{
    readyBit = r;
    if (r && readyWatchdog != sim::invalidEventId) {
        if (eventq().pending(readyWatchdog))
            eventq().cancel(readyWatchdog);
        readyWatchdog = sim::invalidEventId;
    }
}

void
IoPort::flushQueue()
{
    q.clear();
    qBytes = 0;
    headBlockedSince = 0;
    cmdPending = false;
}

void
IoPort::transmit(const WireItem &item, bool stolen)
{
    if (!out)
        sim::panic(name() + ": transmit with no outgoing fiber");
    // A start-of-packet leaving the output register clears the ready
    // bit until the downstream queue signals that it drained
    // (Section 4.2.3).
    if (item.kind == ItemKind::startOfPacket) {
        readyBit = false;
        armReadyWatchdog();
    }
    if (stolen)
        out->sendStolen(item);
    else
        out->send(item);
}

void
IoPort::fiberDeliver(WireItem item, Tick firstByte, Tick lastByte)
{
    if (!_enabled) {
        hub.stats().disabledDrops.add();
        return;
    }

    switch (item.kind) {
      case ItemKind::readySignal:
        // Hop-by-hop flow control: the downstream queue drained.
        setReady(true);
        return;
      case ItemKind::reply:
        // Replies travel backward along the route, stealing cycles;
        // they never enter the input queue (Section 4.2.1).
        hub.forwardReplyReverse(_id, item.reply);
        return;
      default:
        break;
    }

    if (qBytes + item.byteLength() > qCapacity) {
        hub.stats().queueOverflows.add();
        hub.countError();
        hub.monitorRecord(HubEvent::queueOverflow, _id, noPort);
        return;
    }

    qBytes += item.byteLength();
    q.push_back(Queued{std::move(item), firstByte, lastByte});
    scheduleProcess(now());
}

void
IoPort::connectionOpened()
{
    scheduleProcess(now());
}

void
IoPort::commandSettled()
{
    cmdPending = false;
    scheduleProcess(now());
}

void
IoPort::scheduleProcess(Tick when)
{
    when = std::max(when, now());
    if (wakeup != sim::invalidEventId && eventq().pending(wakeup)) {
        if (wakeupAt <= when)
            return; // an earlier (or equal) wakeup is already set
        eventq().cancel(wakeup);
    }
    wakeupAt = when;
    wakeup = eventq().schedule(
        when, [this] { processQueue(); }, sim::EventPriority::hardware);
}

void
IoPort::processQueue()
{
    while (!q.empty()) {
        Tick retry = tryDisposeHead();
        if (retry == 0) {
            headBlockedSince = 0;
            continue; // head disposed; look at the next item
        }
        if (retry != sim::maxTick) {
            headBlockedSince = 0;
            scheduleProcess(retry);
            return;
        }
        // Blocked with no known wakeup: the connection this head is
        // waiting for may never open (its open command was lost, or
        // the route died under it).  Arm the stuck-head watchdog so
        // the queue — and the ready handshake upstream of it — cannot
        // stall forever; reliability above retransmits the loss.
        const Tick limit = hub.configuration().stuckTimeout;
        if (limit <= 0)
            return; // woken by connectionOpened()
        if (headBlockedSince == 0)
            headBlockedSince = now();
        if (now() - headBlockedSince >= limit) {
            dropHead();
            continue;
        }
        scheduleProcess(headBlockedSince + limit);
        return;
    }
    headBlockedSince = 0;
}

void
IoPort::armReadyWatchdog()
{
    const Tick limit = hub.configuration().readyTimeout;
    if (limit <= 0)
        return;
    if (readyWatchdog != sim::invalidEventId &&
        eventq().pending(readyWatchdog))
        eventq().cancel(readyWatchdog);
    readyWatchdog = eventq().scheduleIn(limit, [this] {
        readyWatchdog = sim::invalidEventId;
        if (!readyBit) {
            readyBit = true;
            hub.stats().readyRearms.add();
        }
    }, sim::EventPriority::hardware);
}

void
IoPort::dropHead()
{
    const Queued &head = q.front();
    // Discarding a start of packet frees the queue slot the upstream
    // transmitter is waiting on, which is exactly what the ready
    // signal reports — send it so the upstream port is not wedged on
    // a packet that will never emerge.
    if (head.item.kind == ItemKind::startOfPacket && out)
        out->sendStolen(WireItem::ready());
    qBytes -= head.item.byteLength();
    q.pop_front();
    headBlockedSince = 0;
    hub.stats().stuckDrops.add();
    hub.countError();
    hub.monitorRecord(HubEvent::stuckDrop, _id, noPort);
}

Tick
IoPort::tryDisposeHead()
{
    // In-order command semantics: a command consumed from this stream
    // and handed to the central controller must settle before any
    // later item moves.  Without this, a frame's data or close all
    // can overtake its own backed-off open; the open then executes
    // after the close all has passed and leaves an orphaned crossbar
    // connection that no close all will ever reach — the held output
    // fails every later open and duplicates passing traffic onto a
    // stale branch.  If the controller cannot settle the command
    // within the stuck-head limit, withdraw it (so it can never
    // execute late) and move on; reliability above retransmits
    // whatever the abandoned branch loses.
    if (cmdPending) {
        const Tick limit = hub.configuration().stuckTimeout;
        if (limit <= 0)
            return sim::maxTick; // woken by commandSettled()
        if (now() - cmdPendingSince < limit)
            return cmdPendingSince + limit;
        hub.controller().abandonFrom(_id);
        cmdPending = false;
        hub.stats().cmdAbandons.add();
        hub.countError();
        hub.monitorRecord(HubEvent::stuckDrop, _id, noPort);
    }

    const Queued &head = q.front();
    const WireItem &item = head.item;
    const Tick cycle = hub.configuration().cycle;

    // closeAll is never consumed on a hub-id match: it travels along
    // the route with the data and is recognized at each output
    // register it passes through (Section 4.2.1).
    if (item.kind == ItemKind::command &&
        item.cmd.hubId == hub.hubId() &&
        static_cast<Op>(item.cmd.op) != Op::closeAll) {
        // Addressed to this HUB: consume once fully received and
        // decoded.
        Tick ready =
            head.lastByte + hub.configuration().decodeCycles * cycle;
        if (now() < ready)
            return ready;
        phys::CommandWord cmd = item.cmd;
        qBytes -= item.byteLength();
        q.pop_front();
        if (needsController(static_cast<Op>(cmd.op))) {
            cmdPending = true;
            cmdPendingSince = now();
        }
        hub.dispatchCommand(cmd, _id);
        return 0;
    }

    // Everything else travels through the crossbar: data, framing
    // markers, closeAll, and commands addressed to other HUBs.
    const auto &outputs = hub.crossbar().outputsOf(_id);

    if (outputs.empty()) {
        // A closeAll with nothing to close is consumed (idempotent);
        // other items wait for a connection.
        if (item.kind == ItemKind::command &&
            static_cast<Op>(item.cmd.op) == Op::closeAll) {
            qBytes -= item.byteLength();
            q.pop_front();
            return 0;
        }
        return sim::maxTick; // woken by connectionOpened()
    }

    return forwardHead(outputs);
}

Tick
IoPort::forwardHead(const std::vector<PortId> &outputs)
{
    const Queued &head = q.front();
    const Tick cycle = hub.configuration().cycle;

    // Cut-through: the item may leave transferCycles after its first
    // byte arrived, once every target output register is free.
    Tick t = head.firstByte + hub.configuration().transferCycles * cycle;
    for (PortId o : outputs) {
        phys::FiberLink *link = hub.port(o).output();
        if (!link)
            sim::panic(name() + ": connected output has no fiber");
        t = std::max(t, link->busyUntil());
    }
    if (t > now())
        return t;

    // Forward now.  Copy the head so the queue can be popped before
    // transmission side effects run.
    Queued head_copy = q.front();
    qBytes -= head_copy.item.byteLength();
    q.pop_front();

    const bool is_sop =
        head_copy.item.kind == ItemKind::startOfPacket;
    const bool is_close_all =
        head_copy.item.kind == ItemKind::command &&
        static_cast<Op>(head_copy.item.cmd.op) == Op::closeAll;

    for (PortId o : outputs)
        hub.port(o).transmit(head_copy.item);
    hub.noteCircuitActivity(_id);

    if (head_copy.item.kind == ItemKind::data)
        hub.stats().dataBytes.add(head_copy.item.dataLen);

    if (is_sop) {
        // The start of packet has emerged from this input queue;
        // signal readiness back upstream (Section 4.2.3).
        if (out)
            out->sendStolen(WireItem::ready());
        hub.stats().packetsForwarded.add();
        hub.monitorRecord(HubEvent::packetForwarded, _id,
                          outputs.empty() ? noPort : outputs.front());
    }

    if (is_close_all) {
        // Detected at each output register it passed through: close
        // the connections behind it (Section 4.2.1).
        for (PortId o : outputs) {
            hub.crossbar().close(o);
            hub.stats().closes.add();
            hub.monitorRecord(HubEvent::connectionClose, _id, o);
        }
        hub.noteCircuitClosed();
    }

    return 0;
}

} // namespace nectar::hub
