#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>

#include "cab/checksum.hh"
#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "fault/oracle.hh"
#include "nectarine/nectarine.hh"
#include "node/node.hh"
#include "serving/serving.hh"
#include "sim/coro.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "topo/topofile.hh"
#include "workload/allreduce.hh"

namespace nectar::perfbench {

using sim::Task;
using sim::Tick;
using namespace sim::ticks;

const std::vector<std::string> workloadNames = {
    "rpc-fabric16", "bulk-star", "allreduce-fabric16"};

const std::string fabric16File =
    std::string(NECTAR_ROOT) + "/examples/fabrics/fabric16.topo";

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: whitens (seed, index) pairs into independent seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ v);
}

std::uint64_t
doubleBits(double d)
{
    std::uint64_t b = 0;
    static_assert(sizeof b == sizeof d);
    std::memcpy(&b, &d, sizeof b);
    return b;
}

/** p50/p99 (µs) and sample count of a latency histogram in ns. */
void
setLatency(ModelResult &m, const sim::Histogram &h)
{
    m.samples = h.count();
    m.p50Us = h.percentile(50.0) / 1e3;
    m.p99Us = h.percentile(99.0) / 1e3;
}

/** Heap bytes currently in use (glibc mallinfo2). */
std::size_t
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

/** Time one set-up step into @p slot; returns the step's result. */
template <typename F>
auto
timed(double &slot, F &&f)
{
    auto t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        slot += secondsSince(t0);
    } else {
        auto r = f();
        slot += secondsSince(t0);
        return r;
    }
}

// ----- rpc-fabric16 -------------------------------------------------

/**
 * The small-token shape under load: open-loop Poisson RPCs over the
 * 16-HUB / 208-CAB fabric.  Offered load is about half the E19 knee
 * and the 200 ms arrival window is long enough that the short-window
 * achieved-above-offered bias does not appear.
 */
class RpcScenario : public Scenario
{
  public:
    static constexpr double offered = 80'000;
    /** Service mailbox of serving::ServingWorkload on every site. */
    static constexpr std::uint16_t servingMailbox = 0x0FFE;

    RpcScenario(std::uint64_t seed, Size size)
    {
        assemble(fabric16File);

        cfg.arrival = serving::Arrival::poisson;
        cfg.flows = 1'000'000;
        cfg.offeredRps = offered;
        cfg.duration = size == Size::full ? 200 * ms : 4 * ms;
        _slice = cfg.duration / 100;
        cfg.requestBytes = 128;
        cfg.responseBytes = 256;
        cfg.serverCompute = 100 * us;
        cfg.seed = seed;
        work = timed(_phases.workload, [&] {
            return std::make_unique<serving::ServingWorkload>(*sys,
                                                              cfg);
        });
    }

    std::vector<std::uint16_t>
    mailboxIds() const override
    {
        return {servingMailbox};
    }

    Outcome
    finish() override
    {
        Outcome o;
        const serving::ServingReport r = work->report();
        const sim::Histogram &lat = work->latency();
        ModelResult &m = o.model;
        const std::uint64_t unfinished =
            r.issued - std::min(r.issued, r.completed + r.failed);
        m.attempted = r.arrivals;
        m.completed = r.completed;
        m.failed = r.failed + r.shed + unfinished;
        m.samples = lat.count();
        m.p50Us = r.p50Ns / 1e3;
        m.p99Us = r.p99Ns / 1e3;
        m.goodputMBs = r.goodputMBs;
        m.simEnd = r.lastDoneAt;
        std::uint64_t d = 0;
        for (std::uint64_t v :
             {r.arrivals, r.issued, r.completed, r.failed, r.shed,
              r.peakFlowTable, doubleBits(r.p999Ns),
              doubleBits(r.meanNs)})
            d = fold(d, v);
        m.digest = d;

        if (unfinished != 0)
            o.errors.push_back(std::to_string(unfinished) +
                               " RPCs neither completed nor failed");
        if (r.arrivals != r.issued + r.shed)
            o.errors.push_back("arrivals != issued + shed");
        if (lat.count() != r.completed)
            o.errors.push_back("latency samples != completed RPCs");

        // Validity of the open-loop measurement.  Completions can
        // never outrun the arrivals the generator actually produced,
        // so achieved throughput above the realized offered rate by
        // more than its Poisson 95% interval is a measurement bug.
        // The realized count itself must sit near the nominal rate
        // (6 sigma: a generator bias, not seed-to-seed chance).
        const double window = static_cast<double>(cfg.duration) / 1e9;
        const double n = static_cast<double>(r.arrivals);
        const double realized = n / window;
        const double ceiling = (n + 1.96 * std::sqrt(n)) / window;
        if (r.achievedRps > ceiling)
            o.errors.push_back(
                "achieved rps " + std::to_string(r.achievedRps) +
                " exceeds realized offered " + std::to_string(realized) +
                " beyond its Poisson 95% interval");
        const double expect = offered * window;
        const double z = (n - expect) / std::sqrt(expect);
        if (std::fabs(z) > 6.0)
            o.errors.push_back("arrival count " + std::to_string(n) +
                               " is " + std::to_string(z) +
                               " sigma from the offered load");
        o.extras = {{"offered_rps", offered},
                    {"realized_offered_rps", realized},
                    {"achieved_rps", r.achievedRps},
                    {"arrivals_z", z},
                    {"p999_us", r.p999Ns / 1e3},
                    {"serving.peak_flow_table",
                     static_cast<double>(r.peakFlowTable)},
                    {"serving.shed", static_cast<double>(r.shed)}};
        return o;
    }

  private:
    serving::ServingConfig cfg;
    std::unique_ptr<serving::ServingWorkload> work;
};

// ----- bulk-star ----------------------------------------------------

/**
 * The vision shape: four node-to-node pairs on one HUB, each moving
 * images of 48-80 KB (64 KB mean) closed-loop through source VME,
 * pipelined reliable MTU chunks and destination VME (E9's packet
 * pipeline).  The pairs share no port, so the seed reaches latency
 * through the inputs: each image's size and bytes, each pair's start
 * offset and the short think time before each image.
 */
class BulkScenario : public Scenario
{
  public:
    static constexpr int pairs = 4;
    static constexpr std::uint32_t minBytes = 48 * 1024;
    static constexpr std::uint32_t maxBytes = 80 * 1024;
    static constexpr std::uint32_t chunkBytes = 896; ///< one MTU
    static constexpr int window = 8; ///< chunks in flight per pair
    static constexpr std::uint16_t inbox = 10;

    BulkScenario(std::uint64_t seed, Size size)
        : seed(seed), messages(size == Size::full ? 250 : 3)
    {
        _slice = messages * 70 * us; // ~7 ms per message
        assemble("", 2 * pairs);
        timed(_phases.workload, [&] {
            for (int p = 0; p < pairs; ++p) {
                auto &pr = state.emplace_back(
                    std::make_unique<Pair>(eq, p));
                sys->site(static_cast<std::size_t>(pairs + p))
                    .kernel->createMailbox("bulk_in", 2u << 20, inbox);
                sim::spawn(receiver(*pr));
                sim::spawn(sender(*pr));
            }
        });
    }

    std::vector<std::uint16_t>
    mailboxIds() const override
    {
        return {inbox};
    }

    Outcome
    finish() override
    {
        Outcome o;
        ModelResult &m = o.model;
        sim::Histogram lat;
        std::uint64_t d = 0, wrong = 0, sendFails = 0, bytes = 0;
        for (auto &p : state) {
            bytes += p->verifiedBytes;
            m.attempted += p->started;
            m.completed += p->verified;
            wrong += p->wrong;
            sendFails += p->sendFailures;
            lat.merge(p->latency);
            m.simEnd = std::max(m.simEnd, p->lastDone);
            d = fold(d, p->digest);
        }
        m.failed = m.attempted - m.completed;
        setLatency(m, lat);
        m.goodputMBs = m.simEnd > 0
                           ? static_cast<double>(bytes) /
                                 (static_cast<double>(m.simEnd) / 1e3)
                           : 0;
        m.digest = d;
        const std::uint64_t want =
            static_cast<std::uint64_t>(pairs) *
            static_cast<std::uint64_t>(messages);
        if (m.attempted != want || m.completed != want)
            o.errors.push_back(std::to_string(m.completed) + " of " +
                               std::to_string(want) +
                               " bulk messages delivered and verified");
        if (wrong)
            o.errors.push_back(std::to_string(wrong) +
                               " bulk messages failed their checksum");
        if (sendFails)
            o.errors.push_back(std::to_string(sendFails) +
                               " reliable chunk sends failed");
        return o;
    }

  protected:
    void
    addWorkloadCounters(LayerCounters &c) const override
    {
        for (const auto &p : state) {
            for (node::Node *n : {&p->src, &p->dst}) {
                c.nodeInterrupts += n->interruptsTaken();
                c.vmeBusy += n->vme().busyTicks();
                ++c.nodes;
            }
        }
    }

  private:
    struct Pair
    {
        Pair(sim::EventQueue &eq, int index)
            : index(index),
              src(eq, "bulk_src" + std::to_string(index)),
              dst(eq, "bulk_dst" + std::to_string(index)), done(eq),
              irq(eq)
        {}

        int index;
        node::Node src, dst;
        sim::Channel<bool> done; ///< destination verified a message
        sim::Channel<bool> irq;  ///< completion interrupt delivered
        std::uint32_t size = 0; ///< current message
        std::vector<std::uint16_t> chunkSums;
        std::vector<std::uint32_t> chunkLens;
        Tick startedAt = 0;
        std::uint64_t started = 0, verified = 0, wrong = 0;
        std::uint64_t verifiedBytes = 0;
        std::uint64_t sendFailures = 0;
        std::uint64_t digest = 0;
        Tick lastDone = 0;
        sim::Histogram latency;
    };

    /** Seeded payload of message @p m of pair @p p (size % 8 == 0). */
    std::vector<std::uint8_t>
    payload(int p, std::uint64_t m, std::uint32_t size) const
    {
        std::vector<std::uint8_t> bytes(size);
        std::uint64_t x = mix64(seed ^ mix64((m << 8) | unsigned(p)));
        for (std::size_t i = 0; i < bytes.size(); i += 8) {
            x = mix64(x);
            std::memcpy(&bytes[i], &x, 8);
        }
        return bytes;
    }

    Task<void>
    sendChunk(Pair &pr, sim::PacketView chunk, sim::Channel<bool> &win,
              int &inflight)
    {
        auto &tp = *sys->site(static_cast<std::size_t>(pr.index))
                        .transport;
        auto dst = sys->site(static_cast<std::size_t>(pairs + pr.index))
                       .address;
        if (!co_await tp.sendReliable(dst, inbox, std::move(chunk)))
            ++pr.sendFailures;
        --inflight;
        win.push(true);
    }

    Task<void>
    sender(Pair &pr)
    {
        sim::Random rng(mix64(seed ^ 0x62756c6bull), 2 * pr.index + 1);
        co_await sim::Delay{eq, static_cast<Tick>(rng.below(50'000))};
        for (int m = 0; m < messages; ++m) {
            co_await sim::Delay{eq,
                                static_cast<Tick>(rng.below(20'000))};
            const std::uint32_t size =
                minBytes + 8 * rng.below((maxBytes - minBytes) / 8 + 1);
            auto bytes = payload(pr.index, static_cast<unsigned>(m), size);
            pr.size = size;
            pr.chunkSums.clear();
            pr.chunkLens.clear();
            for (std::uint32_t off = 0; off < size; off += chunkBytes) {
                std::uint32_t n = std::min(chunkBytes, size - off);
                pr.chunkSums.push_back(
                    cab::checksum16(bytes.data() + off, n));
                pr.chunkLens.push_back(n);
            }
            sim::BufferRef buf = sim::Buffer::make(std::move(bytes));
            pr.startedAt = eq.now();
            ++pr.started;

            // Pipelined: the VME transfer of chunk k+1 overlaps the
            // network send of chunk k, at most `window` in flight.
            sim::Channel<bool> win(eq);
            int inflight = 0;
            for (std::uint32_t off = 0; off < size; off += chunkBytes) {
                std::uint32_t n = std::min(chunkBytes, size - off);
                co_await pr.src.vme().transferAwait(n);
                ++inflight;
                sim::spawn(sendChunk(pr, sim::PacketView(buf, off, n),
                                     win, inflight));
                while (inflight >= window)
                    co_await win.pop();
            }
            while (inflight > 0)
                co_await win.pop();
            co_await pr.done.pop();
        }
    }

    Task<void>
    receiver(Pair &pr)
    {
        auto &mb = *sys->site(static_cast<std::size_t>(pairs + pr.index))
                        .kernel->mailbox(inbox);
        for (int m = 0; m < messages; ++m) {
            // The first chunk arrives only after the sender has
            // published the message's size and chunk checksums.
            std::uint32_t got = 0;
            std::size_t k = 0;
            bool ok = true;
            do {
                auto msg = co_await mb.get();
                auto n = static_cast<std::uint32_t>(msg.size());
                if (k >= pr.chunkSums.size() || n != pr.chunkLens[k] ||
                    cab::checksum16(msg.view()) != pr.chunkSums[k])
                    ok = false;
                ++k;
                got += n;
                co_await pr.dst.vme().transferAwait(n);
            } while (got < pr.size);
            ok = ok && got == pr.size && k == pr.chunkSums.size();
            // The CAB interrupts the node once the whole message is
            // in node memory; the node then checks and consumes it.
            pr.dst.raiseInterrupt([&pr] { pr.irq.push(true); });
            co_await pr.irq.pop();
            Tick lat = eq.now() - pr.startedAt;
            pr.latency.record(static_cast<double>(lat));
            pr.digest = fold(pr.digest, static_cast<std::uint64_t>(lat));
            pr.lastDone = eq.now();
            if (ok) {
                ++pr.verified;
                pr.verifiedBytes += got;
            } else {
                ++pr.wrong;
            }
            pr.done.push(true);
        }
    }

    std::uint64_t seed;
    int messages;
    std::vector<std::unique_ptr<Pair>> state;
};

// ----- allreduce-fabric16 -------------------------------------------

/**
 * The synchronised shape: a 32-member group spread two per HUB over
 * fabric16 (the CABs and each member's compute step drawn from the
 * seed) runs back-to-back 4 KB sum allreduces on the
 * hardware-multicast path.
 * Each member's every call is timed and checked against the
 * host-computed reference sum.
 */
class AllreduceScenario : public Scenario
{
  public:
    AllreduceScenario(std::uint64_t seed, Size size)
    {
        assemble(fabric16File);

        cfg.members = size == Size::full ? 32 : 8;
        cfg.bytes = 4096;
        cfg.rounds = size == Size::full ? 150 : 2;
        cfg.op = collective::ReduceOp::sum;
        cfg.seed = static_cast<std::uint32_t>(mix64(seed));
        cfg.comm.path = collective::McastPath::automatic;
        _slice = cfg.rounds * 1500 * us; // ~150 ms per round
        timed(_phases.workload, [&] { build(seed); });
    }

    void
    attachOracle(fault::DeliveryOracle &oracle) override
    {
        Scenario::attachOracle(oracle);
        groups.setProbe(&oracle);
    }

    std::vector<std::uint16_t>
    mailboxIds() const override
    {
        return {collective::GroupDirectory::groupMailboxId(gid)};
    }

    Outcome
    finish() override
    {
        Outcome o;
        ModelResult &m = o.model;
        sim::Histogram lat;
        std::uint64_t d = 0, errors = 0, wrong = 0;
        for (const Member &mem : members) {
            m.completed += mem.ok;
            errors += mem.errors;
            wrong += mem.wrong;
            lat.merge(mem.latency);
            m.simEnd = std::max(m.simEnd, mem.finish);
            d = fold(d, mem.digest);
        }
        m.attempted = static_cast<std::uint64_t>(cfg.members) *
                      static_cast<std::uint64_t>(cfg.rounds);
        m.failed = m.attempted - std::min(m.attempted, m.completed);
        setLatency(m, lat);
        m.goodputMBs = m.simEnd > 0
                           ? static_cast<double>(m.completed) *
                                 cfg.bytes /
                                 (static_cast<double>(m.simEnd) / 1e3)
                           : 0;
        m.digest = d;
        if (wrong)
            o.errors.push_back("wrongMembers = " +
                               std::to_string(wrong) +
                               " (result differs from reference sum)");
        if (errors)
            o.errors.push_back(std::to_string(errors) +
                               " allreduce calls reported an error");
        if (m.completed != m.attempted)
            o.errors.push_back(std::to_string(m.completed) + " of " +
                               std::to_string(m.attempted) +
                               " allreduce calls completed");
        return o;
    }

  protected:
    void
    addWorkloadCounters(LayerCounters &c) const override
    {
        c.epochBumps += groups.epochBumps();
    }

  private:
    struct Member
    {
        std::uint64_t ok = 0, errors = 0, wrong = 0, digest = 0;
        Tick finish = 0;
        sim::Histogram latency;
    };

    /** Reference sum of round @p t, computed once on first use. */
    const std::vector<std::uint8_t> &
    expected(int t)
    {
        auto &slot = reference[static_cast<std::size_t>(t)];
        if (!slot)
            slot = workload::AllreduceWorkload::expectedData(cfg, t);
        return *slot;
    }

    void
    build(std::uint64_t seed)
    {
        api = std::make_unique<nectarine::Nectarine>(*sys);
        const int hubs = sys->topo().numHubs();
        std::vector<std::vector<std::size_t>> byHub(
            static_cast<std::size_t>(hubs));
        for (std::size_t i = 0; i < sys->siteCount(); ++i)
            byHub[static_cast<std::size_t>(sys->site(i).at.hubIndex)]
                .push_back(i);
        // Ranks 2h and 2h+1 live on HUB h; the seed picks which CABs
        // of each HUB (distinct, partial Fisher-Yates).
        sim::Random rng(mix64(seed ^ 0x616c6c72ull), 7);
        std::vector<std::size_t> taken(static_cast<std::size_t>(hubs));
        std::vector<std::size_t> sites;
        for (int r = 0; r < cfg.members; ++r) {
            auto h = static_cast<std::size_t>(r * hubs / cfg.members);
            auto &pool = byHub[h];
            std::size_t k = taken[h]++;
            if (k >= pool.size())
                sim::fatal("allreduce-fabric16: HUB out of CABs");
            std::swap(pool[k],
                      pool[k + rng.below(static_cast<std::uint32_t>(
                                   pool.size() - k))]);
            sites.push_back(pool[k]);
        }
        // Each member computes for a seeded 0-100 us before every
        // call (the local step of a data-parallel iteration), so
        // members reach each allreduce at different times.
        compute.resize(static_cast<std::size_t>(cfg.members *
                                                cfg.rounds));
        for (Tick &c : compute)
            c = static_cast<Tick>(rng.below(100'000));

        members.resize(static_cast<std::size_t>(cfg.members));
        reference.resize(static_cast<std::size_t>(cfg.rounds));
        std::vector<nectarine::TaskId> ids;
        for (int r = 0; r < cfg.members; ++r) {
            ids.push_back(api->createTask(
                sites[static_cast<std::size_t>(r)],
                "allreduce_" + std::to_string(r),
                [this, r](nectarine::TaskContext &ctx) -> Task<void> {
                    collective::Communicator comm(ctx, groups, gid,
                                                  cfg.comm);
                    Member &me = members[static_cast<std::size_t>(r)];
                    for (int t = 0; t < cfg.rounds; ++t) {
                        auto data = workload::AllreduceWorkload::
                            memberData(cfg, comm.rank(), t);
                        co_await ctx.compute(
                            compute[static_cast<std::size_t>(
                                r * cfg.rounds + t)]);
                        Tick t0 = ctx.now();
                        auto res = co_await comm.allreduce(cfg.op, data);
                        if (!res.ok) {
                            ++me.errors;
                            co_return;
                        }
                        Tick lat = ctx.now() - t0;
                        me.latency.record(static_cast<double>(lat));
                        me.digest = fold(me.digest,
                                         static_cast<std::uint64_t>(lat));
                        if (data != expected(t))
                            ++me.wrong;
                        else
                            ++me.ok;
                        me.finish = ctx.now();
                    }
                }));
        }
        gid = groups.create("bench_allreduce", ids);
    }

    workload::AllreduceConfig cfg;
    std::unique_ptr<nectarine::Nectarine> api;
    collective::GroupDirectory groups;
    collective::GroupId gid = 0;
    std::vector<Member> members;
    std::vector<Tick> compute; ///< per (member, round) local step
    std::vector<std::optional<std::vector<std::uint8_t>>> reference;
};

} // namespace

void
Scenario::assemble(const std::string &fabricFile, int starCabs)
{
    std::optional<topo::TopologyDescription> desc;
    if (!fabricFile.empty())
        desc = timed(_phases.topoLoad, [&] {
            return topo::loadTopologyFile(fabricFile);
        });
    const std::size_t heap0 = heapInUse();
    sys = timed(_phases.build, [&] {
        return desc ? nectarine::NectarSystem::fromDescription(eq, *desc)
                    : nectarine::NectarSystem::singleHub(eq, starCabs);
    });
    _phases.heapBytesPerSite = static_cast<double>(heapInUse() - heap0) /
                               static_cast<double>(sys->siteCount());
}

void
Scenario::attachOracle(fault::DeliveryOracle &oracle)
{
    sys->attachDeliveryProbe(&oracle);
}

LayerCounters
Scenario::counters() const
{
    LayerCounters c;
    c.events = eq.executedCount();
    c.cascades = eq.cascadeCount();
    const auto boxes = mailboxIds();
    topo::Topology &topo = sys->topo();
    for (std::size_t i = 0; i < sys->siteCount(); ++i) {
        nectarine::CabSite &s = sys->site(i);
        auto &tp = s.transport->stats();
        c.tpPackets += tp.packetsSent.value();
        c.tpAcks += tp.acksSent.value();
        c.tpRetx += tp.retransmissions.value();
        c.tpRequestRetries += tp.requestRetries.value();
        c.mcastHw += tp.mcastHwPackets.value();
        c.mcastUnicast += tp.mcastUnicastPackets.value();
        c.mcastFallbacks += tp.mcastFallbacks.value();
        c.cabTxPackets += s.board->stats().txPackets.value();
        c.cabTxBytes += s.board->stats().txBytes.value();
        c.cabRxDropped += s.board->stats().rxDropped.value();
        c.switches += s.kernel->threadSwitches();
        for (std::uint16_t id : boxes)
            if (const cabos::Mailbox *mb = s.kernel->mailbox(id))
                c.mailboxPutFails += mb->putFailures();
        c.routeTimeouts += s.datalink->stats().routeTimeouts.value();
        c.recoveries += s.datalink->stats().recoveries.value();
        const auto &f = topo.endpointFibers(s.at.hubIndex, s.at.port);
        c.wireBytes += f.forward->bytesSent() + f.reverse->bytesSent();
    }
    for (int h = 0; h < topo.numHubs(); ++h) {
        const hub::HubStats &hs = topo.hubAt(h).stats();
        c.hubForwards += hs.packetsForwarded.value();
        c.hubOpensOk += hs.opensOk.value();
        c.hubOpensFailed += hs.opensFailed.value();
        c.hubQueueOverflows += hs.queueOverflows.value();
        c.hubStuckDrops += hs.stuckDrops.value();
        c.hubCmdAbandons += hs.cmdAbandons.value();
    }
    for (const auto &l : topo.hubLinks()) {
        for (const phys::FiberLink *f : {l.ab, l.ba}) {
            c.wireBytes += f->bytesSent();
            c.trunkBusyMax = std::max(c.trunkBusyMax, f->busyTicks());
        }
    }
    addWorkloadCounters(c);
    return c;
}

std::unique_ptr<Scenario>
makeScenario(const std::string &name, std::uint64_t seed, Size size)
{
    if (name == "rpc-fabric16")
        return std::make_unique<RpcScenario>(seed, size);
    if (name == "bulk-star")
        return std::make_unique<BulkScenario>(seed, size);
    if (name == "allreduce-fabric16")
        return std::make_unique<AllreduceScenario>(seed, size);
    return nullptr;
}

} // namespace nectar::perfbench
