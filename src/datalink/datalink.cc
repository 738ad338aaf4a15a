#include "datalink.hh"

#include "sim/logging.hh"

namespace nectar::datalink {

using hub::Op;
using phys::WireItem;

Datalink::Datalink(cabos::Kernel &kernel, const DatalinkConfig &config)
    : sim::Component(kernel.eventq(), kernel.board().name() + ".dl"),
      _kernel(kernel), cfg(config), txMutex(kernel.eventq())
{
    cab::Cab &board = kernel.board();
    board.onPacketStart = [this] { handlePacketStart(); };
    board.onPacketComplete = [this](sim::PacketView &&p, bool c) {
        handlePacketComplete(std::move(p), c);
    };
    board.onReply = [this](const phys::ReplyWord &r) { handleReply(r); };
    board.onReadySignal = [this] { handleReadySignal(); };
}

// --------------------------------------------------------------------
// Receive path.
// --------------------------------------------------------------------

void
Datalink::handlePacketStart()
{
    // "During a receive, the datalink interrupt handler, invoked by
    // the start of packet signal, executes an upcall to a transport
    // layer routine ... The datalink layer then sets up the DMA to
    // transfer the incoming data to the destination mailbox"
    // (Section 6.2.1).  The upcall's cost is what races the input
    // queue.
    const auto &costs = board().costs();
    Tick upcall_cost = costs.interruptDispatch +
                       costs.datalinkPerPacket + costs.transportUpcall +
                       costs.dmaSetup;
    // Bind the accept to this packet: if a second start of packet
    // outruns the upcall, this accept must not claim the newcomer.
    std::uint64_t gen = board().rxGeneration();
    board().cpu().chargeThen(
        upcall_cost, [this, gen] { board().acceptPacket(gen); });
}

void
Datalink::handlePacketComplete(sim::PacketView &&packet,
                               bool corrupted)
{
    _stats.packetsReceived.add();
    if (corrupted)
        _stats.corruptPackets.add();
    if (rxHandler)
        rxHandler(std::move(packet), corrupted);
}

void
Datalink::handleReply(const phys::ReplyWord &reply)
{
    Op op = static_cast<Op>(reply.op);
    if (op == Op::queryConn || op == Op::queryReady ||
        op == Op::queryLock || op == Op::svQueryErrors) {
        if (queryHook) {
            queryHook(reply);
            return;
        }
    }
    if (replyWait.signal == nullptr) {
        _stats.staleReplies.add();
        return;
    }
    if (reply.status != hub::status::success)
        replyWait.failed = true;
    if (++replyWait.got >= replyWait.need)
        replyWait.signal->push(!replyWait.failed);
}

void
Datalink::handleReadySignal()
{
    _hubReady = true;
    auto waiters = std::move(readyWaiters);
    readyWaiters.clear();
    for (auto *ch : waiters)
        ch->push(true);
}

// --------------------------------------------------------------------
// Transmit path.
// --------------------------------------------------------------------

sim::Task<bool>
Datalink::waitHubReady()
{
    const Tick deadline = now() + cfg.readyTimeout;
    while (!_hubReady) {
        if (now() >= deadline) {
            // The ready signal is not coming: it (or the packet whose
            // emergence downstream triggers it) died on the way.
            // Presume the port drained and let route recovery resync.
            _stats.readyTimeouts.add();
            _hubReady = true;
            co_return false;
        }
        sim::Channel<bool> arrived(eventq());
        readyWaiters.push_back(&arrived);
        // nectar-lint: capture-ok timer fires only while this frame
        // is suspended on pop() below, and is cancelled on resume
        sim::EventId timer = eventq().scheduleIn(
            deadline - now(), [&arrived] { arrived.push(false); },
            sim::EventPriority::software);
        co_await arrived.pop();
        eventq().cancel(timer);
        std::erase(readyWaiters, &arrived);
    }
    co_return true;
}

sim::Task<bool>
Datalink::waitReplies(int need)
{
    if (need <= 0)
        co_return true;

    sim::Channel<bool> signal(eventq());
    replyWait = ReplyWait{need, 0, false, &signal};

    // Race the replies against a timeout.
    // nectar-lint: capture-ok timer fires only while this frame is
    // suspended on pop() below, and is cancelled on resume
    sim::EventId timer = eventq().scheduleIn(
        cfg.replyTimeout, [&signal] { signal.push(false); },
        sim::EventPriority::software);

    bool ok = co_await signal.pop();
    eventq().cancel(timer);
    bool timed_out = !ok && replyWait.got < replyWait.need;
    replyWait = ReplyWait{};
    if (timed_out)
        _stats.routeTimeouts.add();
    co_return ok;
}

sim::Task<void>
Datalink::dmaSendAwait(std::vector<phys::WireItem> items)
{
    sim::Channel<bool> done(eventq());
    board().dmaSend(std::move(items), [&done] { done.push(true); });
    co_await done.pop();
}

std::vector<WireItem>
Datalink::buildPacketFrame(const topo::Route &route,
                           const phys::Payload &payload)
{
    std::vector<WireItem> items;
    for (const auto &hop : route) {
        items.push_back(WireItem::command(
            static_cast<std::uint8_t>(Op::testOpenRetry), hop.hubId,
            static_cast<std::uint8_t>(hop.outPort)));
    }
    auto frame = board().framePacket(payload);
    items.insert(items.end(), frame.begin(), frame.end());
    items.push_back(WireItem::command(
        static_cast<std::uint8_t>(Op::closeAll), 0, 0));
    return items;
}

sim::Task<void>
Datalink::recoverRoute()
{
    // "CAB3 can also decide to take down all the existing connections
    // by using close all, and attempt to re-establish an entire
    // route" (Section 4.2.1).  The closeAll chases any still-pending
    // opens through the route and closes behind them.
    _stats.recoveries.add();
    board().sendControl(WireItem::command(
        static_cast<std::uint8_t>(Op::closeAll), 0, 0));
    co_await _kernel.sleepFor(cfg.recoverySettle);
}

sim::Task<bool>
Datalink::attemptSend(const topo::Route &route,
                      const phys::Payload &payload, SwitchMode mode)
{
    const auto &costs = board().costs();

    // Software cost of building the command packet / frame.  A
    // scatter-gathered payload charges one descriptor load per
    // segment beyond the first (cost_model.hh dmaSegmentSetup).
    const auto extra_segs = payload.segmentCount() > 0
        ? static_cast<Tick>(payload.segmentCount() - 1)
        : 0;
    co_await board().cpu().compute(costs.datalinkPerPacket +
                                   costs.dmaSetup +
                                   extra_segs * costs.dmaSegmentSetup);

    // Hop-by-hop flow control: wait for our HUB port's input queue.
    if (!co_await waitHubReady())
        co_return false; // ready signal lost; recover and retry

    if (mode == SwitchMode::packet) {
        std::vector<WireItem> items = buildPacketFrame(route, payload);
        _hubReady = false; // our SOP will pass the HUB's port
        co_await dmaSendAwait(std::move(items));
        co_return true;
    }

    // Circuit switching: open the route first (Section 4.2.1).
    int need_replies = 0;
    for (const auto &hop : route) {
        Op op = hop.reply ? Op::openRetryReply : Op::openRetry;
        if (hop.reply)
            ++need_replies;
        board().sendControl(WireItem::command(
            static_cast<std::uint8_t>(op), hop.hubId,
            static_cast<std::uint8_t>(hop.outPort)));
    }

    bool ok = co_await waitReplies(need_replies);
    if (!ok)
        co_return false;

    // Route confirmed: stream the data and close behind it.
    auto items = board().framePacket(payload);
    items.push_back(WireItem::command(
        static_cast<std::uint8_t>(Op::closeAll), 0, 0));
    _hubReady = false;
    co_await dmaSendAwait(std::move(items));
    co_return true;
}

bool
Datalink::frameFits(const topo::Route &route, std::size_t payloadBytes,
                    SwitchMode mode) const
{
    return mode != SwitchMode::packet ||
           2 + payloadBytes + 3 * (route.size() + 1) <=
               cfg.maxWirePacketBytes;
}

sim::Task<bool>
Datalink::sendPacket(topo::Route route, phys::Payload payload,
                     SwitchMode mode)
{
    if (route.empty())
        sim::panic(name() + ": empty route");
    if (!frameFits(route, payload.size(), mode)) {
        sim::fatal(name() + ": packet-switched frame of " +
                   std::to_string(payload.size()) + " data bytes over " +
                   std::to_string(route.size()) +
                   " hops exceeds the HUB input queue; use circuit "
                   "switching for large packets");
    }

    co_await txMutex.lock();
    bool sent = false;
    for (int attempt = 1; attempt <= cfg.maxAttempts; ++attempt) {
        sent = co_await attemptSend(route, payload, mode);
        if (sent)
            break;
        co_await recoverRoute();
        co_await _kernel.sleepFor(cfg.retryBackoff * attempt);
    }
    txMutex.unlock();

    if (sent) {
        _stats.packetsSent.add();
        _stats.bytesSent.add(payload.size());
    } else {
        _stats.sendFailures.add();
    }
    co_return sent;
}

sim::Task<std::optional<int>>
Datalink::queryConnection(std::uint8_t hubId, int port)
{
    sim::Channel<int> answer(eventq());
    queryHook = [&answer](const phys::ReplyWord &r) {
        answer.push(r.status);
    };
    board().sendControl(WireItem::command(
        static_cast<std::uint8_t>(Op::queryConn), hubId,
        static_cast<std::uint8_t>(port)));

    // nectar-lint: capture-ok timer fires only while this frame is
    // suspended on pop() below, and is cancelled on resume
    sim::EventId timer = eventq().scheduleIn(
        cfg.replyTimeout, [&answer] { answer.push(-1); },
        sim::EventPriority::software);

    int result = co_await answer.pop();
    eventq().cancel(timer);
    queryHook = nullptr;

    if (result < 0)
        co_return std::nullopt;
    if (result == hub::status::none)
        co_return hub::noPort;
    co_return result;
}

} // namespace nectar::datalink
