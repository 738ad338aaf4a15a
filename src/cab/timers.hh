/**
 * @file
 * CAB hardware timers.
 *
 * "hardware timers allow time-outs to be set by the software with low
 * overhead" (Section 5.1).  Transport retransmission and datalink
 * recovery use these; setting/cancelling charges only
 * CabCostModel::timerOp on the CPU (charged by the caller).  A timer
 * is re-armed by cancel() + set(): the engine recycles the cancelled
 * event straight back, so the pair costs one O(1) unlink and link.
 */

#pragma once

#include "sim/component.hh"
#include "sim/stats.hh"

namespace nectar::cab {

/** Identifies an armed timer. */
using TimerId = sim::EventId;

/** A bank of one-shot hardware timers. */
class HwTimers : public sim::Component
{
  public:
    HwTimers(sim::EventQueue &eq, std::string name)
        : sim::Component(eq, std::move(name))
    {}

    /**
     * Arm a one-shot timer.
     *
     * @param delay Expiry delay from now.
     * @param fn Callback invoked at expiry (interrupt context).
     * @return Id usable with cancel().
     */
    TimerId
    set(sim::Tick delay, sim::EventFn fn)
    {
        _set.add();
        return eventq().scheduleIn(delay, std::move(fn),
                                   sim::EventPriority::software);
    }

    /** Disarm; returns false if already fired or cancelled. */
    bool
    cancel(TimerId id)
    {
        bool ok = eventq().cancel(id);
        if (ok)
            _cancelled.add();
        return ok;
    }

    /** True if the timer is armed and has not fired. */
    bool armed(TimerId id) const { return eventq().pending(id); }

    std::uint64_t timersSet() const { return _set.value(); }
    std::uint64_t timersCancelled() const { return _cancelled.value(); }

  private:
    sim::Counter _set;
    sim::Counter _cancelled;
};

} // namespace nectar::cab
