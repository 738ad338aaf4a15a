#include "controller.hh"

#include <algorithm>

#include "hub/commands.hh"
#include "hub/hub.hh"
#include "sim/logging.hh"

namespace nectar::hub {

CentralController::CentralController(Hub &hub, Tick cycle)
    : sim::Component(hub.eventq(), hub.name() + ".ctrl"), hub(hub),
      cycle(cycle)
{
    if (cycle <= 0)
        sim::fatal("CentralController: cycle must be positive");
}

void
CentralController::submit(const phys::CommandWord &cmd, PortId arrival)
{
    q.push_back(Pending{cmd, arrival, 0, 0});
    if (!running) {
        running = true;
        // The first command executes on the next controller cycle.
        scheduleIn(cycle, [this] { tick(); },
                   sim::EventPriority::hardware);
    }
}

void
CentralController::abandonFrom(PortId arrival)
{
    q.erase(std::remove_if(q.begin(), q.end(),
                           [arrival](const Pending &p) {
                               return p.arrival == arrival;
                           }),
            q.end());
    // `running` is left alone: any scheduled tick finds the queue
    // empty and stands down on its own.
}

void
CentralController::tick()
{
    if (q.empty()) {
        running = false;
        return;
    }

    // Pick the first command whose retry backoff has elapsed,
    // rotating deferred ones to the back (round-robin fairness).
    bool found = false;
    Tick earliest = sim::maxTick;
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (q.front().notBefore <= now()) {
            found = true;
            break;
        }
        earliest = std::min(earliest, q.front().notBefore);
        q.push_back(q.front());
        q.pop_front();
    }

    if (!found) {
        // Every pending command is backing off; sleep until the
        // soonest one is eligible.
        scheduleIn(std::max(earliest - now(), cycle),
                   [this] { tick(); }, sim::EventPriority::hardware);
        return;
    }

    Pending p = q.front();
    q.pop_front();
    ++_cyclesUsed;

    bool ok = hub.executeSerialized(p.cmd, p.arrival);
    bool settled = true;
    if (!ok && hasRetry(static_cast<Op>(p.cmd.op))) {
        ++_retries;
        ++p.attempts;
        hub.monitorRecord(HubEvent::commandRetried, p.arrival, noPort);
        if (retryLimit != 0 && p.attempts >= retryLimit) {
            hub.stats().retryGiveUps.add();
            hub.countError();
        } else {
            // Exponential backoff up to maxBackoffCycles keeps long
            // flow-control waits from consuming a controller cycle
            // per 70 ns.
            std::uint64_t backoff = std::min<std::uint64_t>(
                maxBackoffCycles,
                std::uint64_t(1) << std::min<std::uint64_t>(
                    p.attempts, 16));
            p.notBefore = now() + static_cast<Tick>(backoff) * cycle;
            q.push_back(p);
            settled = false;
        }
    } else {
        hub.monitorRecord(HubEvent::commandExecuted, p.arrival, noPort);
    }

    // The command reached a final disposition (executed or given up);
    // let the submitting port's stream advance past it.  Requeued
    // retries are not settled: the port keeps holding its head.
    if (settled)
        hub.commandSettled(p.arrival);

    if (q.empty()) {
        running = false;
    } else {
        scheduleIn(cycle, [this] { tick(); },
                   sim::EventPriority::hardware);
    }
}

} // namespace nectar::hub
