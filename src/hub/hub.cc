#include "hub.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nectar::hub {

using phys::CommandWord;
using phys::ReplyWord;
using phys::WireItem;

Hub::Hub(sim::EventQueue &eq, std::string name, std::uint8_t id,
         const HubConfig &config, HubMonitor *monitor)
    : sim::Component(eq, std::move(name)), _hubId(id), config(config),
      xbar(config.numPorts), ctrl(*this, config.cycle),
      monitor(monitor)
{
    if (config.numPorts < 2 || config.numPorts > 255)
        sim::fatal("Hub: port count must be in [2, 255]");
    lastActivity.assign(static_cast<std::size_t>(config.numPorts), 0);
    ports.reserve(config.numPorts);
    for (int i = 0; i < config.numPorts; ++i) {
        ports.push_back(
            std::make_unique<IoPort>(*this, i, config.queueCapacity));
    }
}

IoPort &
Hub::port(PortId i)
{
    if (!xbar.valid(i))
        sim::panic(name() + ": bad port id " + std::to_string(i));
    return *ports[i];
}

const IoPort &
Hub::port(PortId i) const
{
    if (!xbar.valid(i))
        sim::panic(name() + ": bad port id " + std::to_string(i));
    return *ports[i];
}

std::uint8_t
Hub::errorCount() const
{
    return static_cast<std::uint8_t>(std::min<std::uint64_t>(errors, 255));
}

void
Hub::countError()
{
    ++errors;
}

void
Hub::dispatchCommand(const CommandWord &cmd, PortId arrival)
{
    Op op = static_cast<Op>(cmd.op);
    if (needsController(op))
        ctrl.submit(cmd, arrival);
    else
        executeLocal(cmd, arrival);
}

void
Hub::commandSettled(PortId arrival)
{
    if (xbar.valid(arrival))
        ports[arrival]->commandSettled();
}

bool
Hub::doOpen(const CommandWord &cmd, PortId arrival)
{
    PortId out = cmd.param;
    if (!xbar.valid(out) || out == arrival) {
        _stats.badCommands.add();
        countError();
        return true; // malformed: do not retry forever
    }

    Op op = static_cast<Op>(cmd.op);
    if (isTestOpen(op) && !ports[out]->ready())
        return false; // downstream queue not ready

    if (!xbar.open(arrival, out)) {
        _stats.opensFailed.add();
        return false;
    }

    _stats.opensOk.add();
    monitorRecord(HubEvent::connectionOpen, arrival, out);
    // Building a route counts as circuit activity (a multi-branch
    // tree may take a while to finish opening before data flows).
    lastActivity[arrival] = now();
    if (config.circuitIdleTimeout > 0)
        armIdleReaper(now() + config.circuitIdleTimeout);
    ports[arrival]->connectionOpened();
    return true;
}

void
Hub::noteCircuitActivity(PortId in)
{
    lastActivity[in] = now();
}

void
Hub::noteCircuitClosed()
{
    if (xbar.connectionCount() > 0)
        return;
    if (idleReaper != sim::invalidEventId &&
        eventq().pending(idleReaper))
        eventq().cancel(idleReaper);
    idleReaper = sim::invalidEventId;
}

void
Hub::armIdleReaper(Tick when)
{
    if (idleReaper != sim::invalidEventId &&
        eventq().pending(idleReaper)) {
        return; // already armed; the scan re-arms as needed
    }
    idleReaper = eventq().schedule(
        when, [this] { reapIdleCircuits(); },
        sim::EventPriority::hardware);
}

void
Hub::reapIdleCircuits()
{
    const Tick limit = config.circuitIdleTimeout;
    Tick next = sim::maxTick;
    for (PortId in = 0; in < config.numPorts; ++in) {
        const auto &outs = xbar.outputsOf(in);
        if (outs.empty())
            continue;
        Tick deadline = lastActivity[in] + limit;
        if (deadline > now()) {
            next = std::min(next, deadline);
            continue;
        }
        // Silent past the limit: the circuit's close all is presumed
        // lost.  Reap every connection so the held outputs can serve
        // live routes again.
        for (PortId out : outs) {
            _stats.idleCloses.add();
            monitorRecord(HubEvent::connectionClose, in, out);
        }
        xbar.closeAllFrom(in);
        countError();
    }
    if (next != sim::maxTick)
        armIdleReaper(next);
    else
        noteCircuitClosed();
}

bool
Hub::executeSerialized(const CommandWord &cmd, PortId arrival)
{
    Op op = static_cast<Op>(cmd.op);

    switch (op) {
      case Op::open:
      case Op::openRetry:
      case Op::testOpen:
      case Op::testOpenRetry: {
        bool ok = doOpen(cmd, arrival);
        return ok;
      }

      case Op::openRetryReply:
      case Op::testOpenRetryReply: {
        bool ok = doOpen(cmd, arrival);
        if (ok)
            sendReply(arrival, cmd.op, cmd.param, status::success);
        return ok;
      }

      case Op::openReply: {
        bool ok = doOpen(cmd, arrival);
        sendReply(arrival, cmd.op, cmd.param,
                  ok ? status::success : status::failure);
        return true; // fail-fast: the reply reports the outcome
      }

      case Op::lock: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return true;
        }
        return xbar.acquireLock(cmd.param, arrival);
      }

      case Op::testLock: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return true;
        }
        bool ok = xbar.acquireLock(cmd.param, arrival);
        sendReply(arrival, cmd.op, cmd.param,
                  ok ? status::success : status::failure);
        return true;
      }

      case Op::queryConn: {
        std::uint8_t st = status::none;
        if (xbar.valid(cmd.param)) {
            PortId owner = xbar.ownerOf(cmd.param);
            if (owner != noPort)
                st = static_cast<std::uint8_t>(owner);
        }
        sendReply(arrival, cmd.op, cmd.param, st);
        return true;
      }

      case Op::queryReady: {
        std::uint8_t st = status::failure;
        if (xbar.valid(cmd.param))
            st = ports[cmd.param]->ready() ? 1 : 0;
        sendReply(arrival, cmd.op, cmd.param, st);
        return true;
      }

      case Op::queryLock: {
        std::uint8_t st = status::none;
        if (xbar.valid(cmd.param)) {
            PortId holder = xbar.lockHolder(cmd.param);
            if (holder != noPort)
                st = static_cast<std::uint8_t>(holder);
        }
        sendReply(arrival, cmd.op, cmd.param, st);
        return true;
      }

      // --- Supervisor commands ------------------------------------
      case Op::svReset: {
        xbar.reset();
        noteCircuitClosed();
        ctrl.clear();
        for (auto &p : ports) {
            p->flushQueue();
            p->setReady(true);
        }
        errors = 0;
        return true;
      }

      case Op::svResetPort: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return true;
        }
        PortId p = cmd.param;
        xbar.close(p);            // as an output
        xbar.closeAllFrom(p);     // as an input
        xbar.releaseLocksOf(p);
        xbar.releaseLock(p, xbar.lockHolder(p));
        noteCircuitClosed();
        ctrl.abandonFrom(p); // a late open must not survive the reset
        ports[p]->flushQueue();
        ports[p]->setReady(true);
        return true;
      }

      case Op::svSetReady:
      case Op::svClearReady: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return true;
        }
        ports[cmd.param]->setReady(op == Op::svSetReady);
        return true;
      }

      case Op::svEnablePort:
      case Op::svDisablePort: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return true;
        }
        ports[cmd.param]->setEnabled(op == Op::svEnablePort);
        return true;
      }

      case Op::svQueryErrors: {
        sendReply(arrival, cmd.op, cmd.param, errorCount());
        return true;
      }

      case Op::svPing: {
        sendReply(arrival, cmd.op, cmd.param, status::success);
        return true;
      }

      default:
        _stats.badCommands.add();
        countError();
        return true;
    }
}

void
Hub::executeLocal(const CommandWord &cmd, PortId arrival)
{
    Op op = static_cast<Op>(cmd.op);

    switch (op) {
      case Op::close: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return;
        }
        PortId in = xbar.close(cmd.param);
        if (in != noPort) {
            _stats.closes.add();
            monitorRecord(HubEvent::connectionClose, in, cmd.param);
            noteCircuitClosed();
        }
        return;
      }

      case Op::closeInput: {
        for (PortId out : xbar.outputsOf(arrival)) {
            _stats.closes.add();
            monitorRecord(HubEvent::connectionClose, arrival, out);
        }
        xbar.closeAllFrom(arrival);
        noteCircuitClosed();
        return;
      }

      case Op::unlock: {
        if (!xbar.valid(cmd.param)) {
            _stats.badCommands.add();
            countError();
            return;
        }
        xbar.releaseLock(cmd.param, arrival);
        return;
      }

      case Op::noop:
        return;

      case Op::echo:
        sendReply(arrival, cmd.op, cmd.param, cmd.param);
        return;

      case Op::closeAll:
        // closeAll is handled in the forwarding path (IoPort); it
        // only reaches here if consumed with no connection, which the
        // port already treats as a no-op.
        return;

      default:
        _stats.badCommands.add();
        countError();
        return;
    }
}

void
Hub::sendReply(PortId arrival, std::uint8_t op, std::uint8_t param,
               std::uint8_t st)
{
    IoPort &p = port(arrival);
    if (!p.output()) {
        _stats.staleReplies.add();
        return;
    }
    p.transmit(WireItem::makeReply(op, _hubId, param, st),
               /*stolen=*/true);
    _stats.repliesSent.add();
    monitorRecord(HubEvent::replySent, arrival, noPort);
}

void
Hub::forwardReplyReverse(PortId atPort, const ReplyWord &reply)
{
    // The reply came in on the reverse fiber of a route that exits
    // through this port's output register; send it back out the
    // output register of the input that owns that connection.
    PortId in = xbar.ownerOf(atPort);
    if (in == noPort) {
        _stats.staleReplies.add();
        return;
    }
    WireItem item;
    item.kind = phys::ItemKind::reply;
    item.reply = reply;
    port(in).transmit(item, /*stolen=*/true);
}

} // namespace nectar::hub
