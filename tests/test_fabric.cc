/**
 * @file
 * Fabric-scale acceptance tests (DESIGN.md "Fabrics and routing"):
 * the 16-HUB / 208-CAB fabric loaded from the checked-in
 * examples/fabrics/fabric16.topo must run the existing transport
 * workloads, a 32-member allreduce, and a seeded chaos campaign
 * completely unmodified — the point of the declarative-topology
 * refactor is that nothing above the topology layer can tell a big
 * fabric from the single HUB it was developed on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fault/fuzz.hh"
#include "fault/generate.hh"
#include "nectarine/system.hh"
#include "topo/topofile.hh"
#include "workload/allreduce.hh"
#include "workload/probes.hh"

using namespace nectar;
using nectarine::NectarSystem;

namespace {

std::string
fabricPath()
{
    return std::string(NECTAR_FABRIC_DIR) + "/fabric16.topo";
}

} // namespace

TEST(FabricTest, LoadsAtAcceptanceScale)
{
    sim::EventQueue eq;
    auto sys = NectarSystem::fromTopoFile(eq, fabricPath());
    EXPECT_EQ(sys->topo().numHubs(), 16);
    EXPECT_GE(sys->siteCount(), 200u);

    // Every site pair is routable before any traffic flows, and no
    // mesh route detours: each is a shortest (Manhattan) path.
    const topo::RouteTable &table = sys->topo().routeTable();
    for (int a = 0; a < 16; ++a)
        for (int b = 0; b < 16; ++b)
            EXPECT_EQ(table.dist(a, b),
                      std::abs(a / 4 - b / 4) + std::abs(a % 4 - b % 4))
                << a << "->" << b;
}

TEST(FabricTest, TransportWorkloadsRunUnmodified)
{
    // The standard latency and throughput probes, pointed across the
    // fabric diameter instead of across one HUB.
    sim::EventQueue eq;
    auto sys = NectarSystem::fromTopoFile(eq, fabricPath());
    nectarine::Nectarine api(*sys);

    workload::PingPongConfig pcfg;
    pcfg.iterations = 20;
    pcfg.delivery = nectarine::Delivery::reliable;
    workload::PingPong corner(api, 0, sys->siteCount() - 1, pcfg);

    workload::StreamMeterConfig scfg;
    scfg.totalBytes = 256 * 1024;
    workload::StreamMeter stream(api, 1, sys->siteCount() - 2, scfg);

    eq.run();
    EXPECT_TRUE(corner.finished());
    EXPECT_GT(corner.meanRttUs(), 0.0);
    EXPECT_TRUE(stream.finished());
    EXPECT_EQ(stream.bytesDelivered(), scfg.totalBytes);
}

TEST(FabricTest, ThirtyTwoMemberAllreduceSpansTheFabric)
{
    sim::EventQueue eq;
    auto sys = NectarSystem::fromTopoFile(eq, fabricPath());
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;

    workload::AllreduceConfig cfg;
    cfg.members = 32;
    cfg.bytes = 1024;
    cfg.rounds = 2;
    std::vector<std::size_t> sites;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(cfg.members); ++i)
        sites.push_back(i * sys->siteCount() /
                        static_cast<std::size_t>(cfg.members));
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    eq.run();

    const workload::AllreduceReport &rep = w.report();
    EXPECT_EQ(rep.okMembers, cfg.members);
    EXPECT_EQ(rep.errorMembers, 0);
    EXPECT_EQ(rep.wrongMembers, 0);

    // Same fabric, same seed: the digest is reproducible.
    sim::EventQueue eq2;
    auto sys2 = NectarSystem::fromTopoFile(eq2, fabricPath());
    nectarine::Nectarine api2(*sys2);
    collective::GroupDirectory groups2;
    workload::AllreduceWorkload w2(api2, groups2, sites, cfg);
    eq2.run();
    EXPECT_EQ(w2.report().fingerprint, rep.fingerprint);
}

TEST(FabricTest, SeededChaosCampaignRunsOracleClean)
{
    // The chaos-fuzz harness, untouched, on the 208-site fabric: the
    // generator targets the fabric's real links and sites (via the
    // description-derived shape), and the delivery oracle must stay
    // clean under the generated fault schedules.
    fault::FuzzConfig cfg;
    cfg.fabric = fault::FuzzFabric::file;
    cfg.topoFile = fabricPath();
    cfg.reliablePerSite = 1;
    cfg.datagramsPerSite = 1;
    cfg.collectiveMembers = 8;

    fault::SystemShape shape = fault::harnessShape(cfg);
    EXPECT_EQ(shape.numHubs, 16);
    EXPECT_EQ(shape.hubLinks.size(), 24u);
    EXPECT_GE(shape.cabPorts.size(), 200u);

    fault::PlanGenerator gen(shape);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        fault::FuzzResult res = fault::runCase(gen.generate(seed), cfg);
        EXPECT_TRUE(res.passed)
            << "seed " << seed << ": " << res.oracleSummary
            << (res.violations.empty() ? ""
                                       : "\n  " + res.violations[0]);
        EXPECT_GT(res.reliableSends, 0u);
    }
}
