/**
 * @file
 * fabric_demo: a whole multicomputer from one declarative .topo file.
 *
 * Loads the checked-in 16-HUB / 208-CAB fabric (Section 2: HUB
 * clusters connect "in any topology appropriate to the application
 * environment"), prints what the route-table compiler made of it,
 * pings across the diameter, and runs a 32-member allreduce spanning
 * every cluster.
 *
 *   $ ./fabric_demo [fabric.topo]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "nectarine/nectarine.hh"
#include "topo/topofile.hh"
#include "workload/allreduce.hh"
#include "workload/probes.hh"

using namespace nectar;
using nectarine::Nectarine;
using nectarine::NectarSystem;
using sim::ticks::us;

#ifndef NECTAR_FABRIC_DIR
#define NECTAR_FABRIC_DIR "examples/fabrics"
#endif

int
main(int argc, char **argv)
{
    std::string path = argc > 1
                           ? argv[1]
                           : std::string(NECTAR_FABRIC_DIR) +
                                 "/fabric16.topo";

    topo::TopologyDescription desc = topo::loadTopologyFile(path);
    std::printf("fabric '%s': %d HUBs (%d ports each), %zu trunks, "
                "%zu CABs\n",
                desc.name.c_str(), desc.numHubs(),
                desc.effectivePorts(), desc.trunks.size(),
                desc.cabs.size());

    sim::EventQueue eq;
    auto sys = NectarSystem::fromDescription(eq, desc);

    // The compiled route table: per-source trees, deadlock-free by
    // the up*-down* turn restriction.
    const topo::RouteTable &table = sys->topo().routeTable();
    int diameter = 0;
    for (int a = 0; a < desc.numHubs(); ++a)
        for (int b = 0; b < desc.numHubs(); ++b)
            diameter = std::max(diameter, table.dist(a, b));
    std::printf("route table: %d sources compiled, diameter %d "
                "trunk hops\n",
                table.numHubs(), diameter);

    // Ping corner to corner (the longest route in the fabric).
    Nectarine api(*sys);
    workload::PingPongConfig pcfg;
    pcfg.iterations = 50;
    pcfg.label = "diameter";
    workload::PingPong ping(api, 0, sys->siteCount() - 1, pcfg);
    eq.run();
    std::printf("corner-to-corner ping: mean RTT %.1f us over %zu "
                "trunk hops\n",
                ping.meanRttUs(),
                sys->topo()
                    .route(sys->site(0).at,
                           sys->site(sys->siteCount() - 1).at)
                    .size() -
                    1);

    // A 32-member allreduce, two CABs from each of the 16 clusters.
    collective::GroupDirectory groups;
    workload::AllreduceConfig acfg;
    acfg.members = 32;
    acfg.bytes = 1024;
    acfg.rounds = 2;
    std::vector<std::size_t> sites;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(acfg.members); ++i)
        sites.push_back(i * sys->siteCount() /
                        static_cast<std::size_t>(acfg.members));
    workload::AllreduceWorkload allreduce(api, groups, sites, acfg);
    eq.run();

    const auto &rep = allreduce.report();
    std::printf("32-member allreduce: %d/%d members ok, finished at "
                "%.1f us, fingerprint %016llx\n",
                rep.okMembers, acfg.members,
                static_cast<double>(rep.lastFinish) / us,
                static_cast<unsigned long long>(rep.fingerprint));
    return rep.okMembers == acfg.members ? 0 : 1;
}
