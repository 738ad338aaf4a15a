/**
 * @file
 * E8 — CAB memory bandwidth sufficiency (Section 5.2).
 *
 * Paper: "the total bandwidth of the data memory is 66
 * megabytes/second, sufficient to support the following concurrent
 * accesses: CPU reads or writes, DMA to the outgoing fiber, DMA from
 * the incoming fiber, and DMA to or from VME memory."
 *
 * Method: drive all four access streams at full rate simultaneously
 * (fiber out 12.5 MB/s, fiber in 12.5 MB/s, VME 10 MB/s, plus a CPU
 * write workload) and show the aggregate demand stays under 66 MB/s.
 */

#include <benchmark/benchmark.h>

#include "nectarine/system.hh"
#include "node/node.hh"
#include "sim/coro.hh"

using namespace nectar;
using nectarine::NectarSystem;
using sim::Task;
using sim::Tick;
using namespace sim::ticks;

static void
E8_ConcurrentAccessDemand(benchmark::State &state)
{
    double total = 0, fiber_out = 0, fiber_in = 0, vme = 0, cpu = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        auto sys = NectarSystem::singleHub(eq, 3);
        // Site 0 is the board under test: it streams out to site 1,
        // receives a stream from site 2, serves VME traffic, and runs
        // a CPU write workload, all concurrently.
        for (int i = 0; i < 3; ++i) {
            sys->site(i).datalink->rxHandler =
                [](sim::PacketView &&, bool) {};
        }
        const Tick duration = 10 * ms;
        auto blaster = [](datalink::Datalink &dl, topo::Route route,
                          Tick until) -> Task<void> {
            while (dl.now() < until) {
                co_await dl.sendPacket(
                    route,
                    phys::makePayload(
                        std::vector<std::uint8_t>(960, 1)),
                    datalink::SwitchMode::packet);
            }
        };
        sim::spawn(blaster(*sys->site(0).datalink,
                           sys->topo().route(sys->site(0).at,
                                             sys->site(1).at),
                           duration));
        sim::spawn(blaster(*sys->site(2).datalink,
                           sys->topo().route(sys->site(2).at,
                                             sys->site(0).at),
                           duration));

        // VME DMA at full bus rate.
        node::Node host(eq, "host");
        sim::spawn([](sim::EventQueue &eq, node::Node &host,
                      cab::CabMemory &mem, Tick until) -> Task<void> {
            while (eq.now() < until) {
                co_await host.vme().transferAwait(4096);
                mem.account(cab::Accessor::vmeDma, 4096);
            }
        }(eq, host, sys->site(0).board->memory(), duration));

        // CPU writes (protocol bookkeeping touching data memory).
        sim::spawn([](sim::EventQueue &eq, cab::Cab &board,
                      Tick until) -> Task<void> {
            while (eq.now() < until) {
                board.memory().access(cab::kernelDomain,
                                      cab::addrmap::dataRamBase, 256,
                                      cab::permWrite, cab::Accessor::cpu);
                co_await sim::Delay{eq, 100 * us};
            }
        }(eq, *sys->site(0).board, duration));

        eq.runUntil(duration);

        auto &mem = sys->site(0).board->memory();
        auto mbs = [&](std::uint64_t bytes) {
            return static_cast<double>(bytes) * 1000.0 /
                   static_cast<double>(duration);
        };
        fiber_out = mbs(mem.bytesBy(cab::Accessor::fiberOutDma));
        fiber_in = mbs(mem.bytesBy(cab::Accessor::fiberInDma));
        vme = mbs(mem.bytesBy(cab::Accessor::vmeDma));
        cpu = mbs(mem.bytesBy(cab::Accessor::cpu));
        total = fiber_out + fiber_in + vme + cpu;
    }
    state.counters["fiber_out_MBs"] = fiber_out;
    state.counters["fiber_in_MBs"] = fiber_in;
    state.counters["vme_MBs"] = vme;
    state.counters["cpu_MBs"] = cpu;
    state.counters["total_MBs"] = total;
    state.counters["paper_budget_MBs"] = 66;
}
BENCHMARK(E8_ConcurrentAccessDemand);

/** VME bandwidth alone (Section 5.2: 10 MB/s). */
static void
E8_VmeBandwidth(benchmark::State &state)
{
    double mbs = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        node::Node host(eq, "host");
        const std::uint64_t total = 1 << 20;
        Tick done = 0;
        for (std::uint64_t off = 0; off < total; off += 4096)
            done = host.vme().transfer(4096);
        eq.runUntil(done);
        mbs = static_cast<double>(total) * 1000.0 /
              static_cast<double>(done);
    }
    state.counters["measured_MBs"] = mbs;
    state.counters["paper_MBs"] = 10;
}
BENCHMARK(E8_VmeBandwidth);

BENCHMARK_MAIN();
