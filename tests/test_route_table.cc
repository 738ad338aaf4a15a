/**
 * @file
 * Route-table compiler tests (DESIGN.md "Fabrics and routing").
 *
 * The heart of the tentpole guarantee: for meshes, tori, fat trees,
 * and a batch of seeded random regular graphs, the compiled tables
 * must (a) reach exactly what a plain BFS reaches, (b) emit only
 * up*-down* legal paths, and (c) induce an acyclic channel-dependency
 * graph — built explicitly here, directed fiber by directed fiber —
 * so cut-through worm routing cannot deadlock on any fabric a .topo
 * file can describe.  Plus the route-cache audit: linkVersion bumps
 * must invalidate NetworkDirectory's cached routes, and a
 * fail-then-recover cycle must restore the original path bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "topo/description.hh"
#include "topo/route_table.hh"
#include "topo/topology.hh"
#include "transport/directory.hh"

using namespace nectar;
using namespace nectar::topo;

namespace {

/** Directed channel id: link i traversed toward its b (0) / a (1) end. */
int
channelOf(const FabricGraph &g, int linkIndex, int fromHub)
{
    return linkIndex * 2 + (g.linkAt(linkIndex).a == fromHub ? 0 : 1);
}

/**
 * Walk @p hops from @p from to @p to, checking contiguity (every
 * hop's port really leads to the next hub) and up*-down* legality (no
 * down move followed by an up move), and append their
 * channel-dependency edges to @p cdg.
 */
void
checkHops(const FabricGraph &g, const RouteTable &t, int from, int to,
          const std::vector<RouteTable::PathHop> &hops,
          std::vector<std::vector<int>> &cdg)
{
    int at = from;
    bool wentDown = false;
    int prevChan = -1;
    for (const auto &h : hops) {
        ASSERT_EQ(h.hub, at) << from << "->" << to;
        int li = g.linkAtPort(h.hub, h.outPort);
        ASSERT_GE(li, 0) << "hop port is not a trunk";
        ASSERT_TRUE(g.linkUp(li));
        const auto &l = g.linkAt(li);
        int next = l.a == at ? l.b : l.a;
        bool up = t.upEndOf(li) == next;
        if (up)
            ASSERT_FALSE(wentDown)
                << from << "->" << to << ": down->up turn at hub "
                << at;
        else
            wentDown = true;
        int chan = channelOf(g, li, at);
        if (prevChan >= 0)
            cdg[static_cast<std::size_t>(prevChan)].push_back(chan);
        prevChan = chan;
        at = next;
    }
    ASSERT_EQ(at, to) << from << "->" << to;
}

/** checkHops() over the compiled unicast path, which must be exactly
 *  dist() hops long. */
void
checkPath(const FabricGraph &g, const RouteTable &t, int from, int to,
          std::vector<std::vector<int>> &cdg)
{
    std::vector<RouteTable::PathHop> hops;
    ASSERT_TRUE(t.path(from, to, hops)) << from << "->" << to;
    ASSERT_EQ(static_cast<int>(hops.size()), t.dist(from, to));
    checkHops(g, t, from, to, hops, cdg);
}

/** DFS cycle check over the channel-dependency graph. */
bool
acyclic(const std::vector<std::vector<int>> &cdg)
{
    enum { white, grey, black };
    std::vector<int> color(cdg.size(), white);
    std::vector<std::pair<int, std::size_t>> stack;
    for (int r = 0; r < static_cast<int>(cdg.size()); ++r) {
        if (color[static_cast<std::size_t>(r)] != white)
            continue;
        stack.emplace_back(r, 0);
        color[static_cast<std::size_t>(r)] = grey;
        while (!stack.empty()) {
            auto &[n, i] = stack.back();
            const auto &out = cdg[static_cast<std::size_t>(n)];
            if (i == out.size()) {
                color[static_cast<std::size_t>(n)] = black;
                stack.pop_back();
                continue;
            }
            int next = out[i++];
            if (color[static_cast<std::size_t>(next)] == grey)
                return false;
            if (color[static_cast<std::size_t>(next)] == white) {
                color[static_cast<std::size_t>(next)] = grey;
                stack.emplace_back(next, 0);
            }
        }
    }
    return true;
}

/** Plain undirected BFS distances over up links (the reference). */
std::vector<int>
bfsDist(const FabricGraph &g, int from)
{
    std::vector<int> dist(static_cast<std::size_t>(g.numHubs()), -1);
    std::vector<int> queue{from};
    dist[static_cast<std::size_t>(from)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        int h = queue[head];
        for (const auto &a : g.adjacencyOf(h)) {
            if (!g.linkUp(a.linkIndex) ||
                dist[static_cast<std::size_t>(a.neighbor)] >= 0)
                continue;
            dist[static_cast<std::size_t>(a.neighbor)] =
                dist[static_cast<std::size_t>(h)] + 1;
            queue.push_back(a.neighbor);
        }
    }
    return dist;
}

/**
 * The full battery: paths valid + legal, CDG acyclic, reachability
 * consistent with plain BFS.  Routes may detour around a down->up
 * turn (legality over hop count) unless @p shortest, which meshes
 * and fat trees never need.
 */
void
checkFabric(const TopologyDescription &d, bool shortest)
{
    SCOPED_TRACE(d.name);
    FabricGraph g = FabricGraph::ofDescription(d);
    RouteTable t = RouteTable::compile(g);
    ASSERT_EQ(t.numHubs(), g.numHubs());

    std::vector<std::vector<int>> cdg(
        static_cast<std::size_t>(g.numLinks()) * 2);
    for (int s = 0; s < g.numHubs(); ++s) {
        std::vector<int> ref = bfsDist(g, s);
        for (int e = 0; e < g.numHubs(); ++e) {
            bool reach = ref[static_cast<std::size_t>(e)] >= 0;
            EXPECT_EQ(t.reachable(s, e), reach) << s << "->" << e;
            if (!reach || s == e)
                continue;
            EXPECT_GE(t.dist(s, e), ref[static_cast<std::size_t>(e)]);
            if (shortest) {
                EXPECT_EQ(t.dist(s, e),
                          ref[static_cast<std::size_t>(e)]);
            }
            checkPath(g, t, s, e, cdg);
        }
    }
    EXPECT_TRUE(acyclic(cdg)) << "channel-dependency cycle";
}

FabricGraph
graphOf(const TopologyDescription &d)
{
    return FabricGraph::ofDescription(d);
}

/** Ten random 3-regular graphs, then a 4x4 mesh with each trunk taken
 *  down in turn: fabrics where some routes detour. */
std::vector<FabricGraph>
irregularFabrics()
{
    std::vector<FabricGraph> out;
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        out.push_back(graphOf(describeRandomRegular(seed, 12, 3, 0)));
    FabricGraph mesh = graphOf(describeMesh2D(4, 4, 0));
    for (int li = 0; li < mesh.numLinks(); ++li) {
        out.push_back(mesh);
        out.back().setLinkUp(li, false);
    }
    return out;
}

/** Meshes and the fat tree: the fabrics whose multicast trees are
 *  pinned along with their unicast routes. */
std::vector<FabricGraph>
meshesAndFatTree()
{
    return {graphOf(describeMesh2D(2, 2, 0)),
            graphOf(describeMesh2D(4, 4, 0)),
            graphOf(describeMesh2D(8, 8, 0)),
            graphOf(describeFatTree(4, 8, 0, 0, 20))};
}

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::int64_t v)
    {
        auto u = static_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (u >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Seeded member sets: per source, a few sets of 1..6 hubs (repeats
 *  and the source itself allowed). */
std::vector<std::pair<int, std::vector<int>>>
memberBattery(int numHubs, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::pair<int, std::vector<int>>> sets;
    for (int s = 0; s < numHubs; ++s)
        for (int k = 0; k < 25; ++k) {
            std::vector<int> members(
                static_cast<std::size_t>(rng.range(1, 6)));
            for (int &m : members)
                m = rng.range(0, numHubs - 1);
            sets.emplace_back(s, members);
        }
    return sets;
}

} // namespace

// ----- deadlock freedom on every fabric family ----------------------

TEST(RouteTableTest, MeshPathsLegalAndCdgAcyclic)
{
    checkFabric(describeMesh2D(4, 4, 0), true);
}

TEST(RouteTableTest, TorusPathsLegalAndCdgAcyclic)
{
    checkFabric(describeTorus2D(4, 4, 0), false);
    checkFabric(describeTorus2D(3, 5, 0), false);
}

TEST(RouteTableTest, FatTreePathsLegalAndCdgAcyclic)
{
    checkFabric(describeFatTree(4, 8, 0, 0, 20), true);
}

TEST(RouteTableTest, RandomRegularGraphsLegalAndCdgAcyclic)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        checkFabric(describeRandomRegular(seed, 12, 3, 0), false);
}

TEST(RouteTableTest, MeshAndFatTreeRoutesAreShortest)
{
    // Single HUBs, 2-D meshes and fat trees never need a detour
    // around a down->up turn: every route is a shortest path.
    for (auto [r, c] : {std::pair{1, 1}, {2, 2}, {2, 3}, {4, 4}})
        checkFabric(describeMesh2D(r, c, 0), true);
    checkFabric(describeFatTree(2, 3, 0), true);
}

TEST(RouteTableTest, SurvivesLinkFailuresStillAcyclic)
{
    // Drop each torus link in turn: recompiled tables must stay
    // legal, acyclic, and fully connected (a 2-D torus is 2-edge-
    // connected, so one dead trunk never partitions it).
    TopologyDescription d = describeTorus2D(3, 3, 0);
    FabricGraph g = FabricGraph::ofDescription(d);
    for (int li = 0; li < g.numLinks(); ++li) {
        g.setLinkUp(li, false);
        RouteTable t = RouteTable::compile(g);
        std::vector<std::vector<int>> cdg(
            static_cast<std::size_t>(g.numLinks()) * 2);
        for (int s = 0; s < g.numHubs(); ++s)
            for (int e = 0; e < g.numHubs(); ++e) {
                ASSERT_TRUE(t.reachable(s, e));
                if (s != e)
                    checkPath(g, t, s, e, cdg);
            }
        EXPECT_TRUE(acyclic(cdg)) << "dead link " << li;
        g.setLinkUp(li, true);
    }
}

// ----- pinned routes --------------------------------------------------

TEST(RouteTableTest, RoutesMatchPinnedDigest)
{
    // Every unicast route on meshes, the torus, the fat tree, random
    // regular graphs and a mesh with each trunk down, plus multicast
    // trees over seeded member sets on the meshes and the fat tree.
    // A change to the compiler that moves any of these routes moves
    // the digest.
    std::vector<FabricGraph> unicast = meshesAndFatTree();
    unicast.push_back(graphOf(describeTorus2D(4, 4, 0)));
    for (FabricGraph &g : irregularFabrics())
        unicast.push_back(g);

    Digest dg;
    std::vector<RouteTable::PathHop> hops;
    for (const FabricGraph &g : unicast) {
        RouteTable t = RouteTable::compile(g);
        for (int s = 0; s < t.numHubs(); ++s)
            for (int e = 0; e < t.numHubs(); ++e) {
                dg.mix(t.path(s, e, hops) ? 1 : 0);
                dg.mix(static_cast<std::int64_t>(hops.size()));
                for (const auto &h : hops) {
                    dg.mix(h.hub);
                    dg.mix(h.outPort);
                }
            }
    }
    std::uint64_t seed = 1;
    for (const FabricGraph &g : meshesAndFatTree()) {
        RouteTable t = RouteTable::compile(g);
        for (const auto &[s, members] :
             memberBattery(t.numHubs(), seed++)) {
            RouteTable::McTree tree = t.multicastTree(s, members);
            dg.mix(tree.ok ? 1 : 0);
            for (const auto &[parent, kids] : tree.children) {
                dg.mix(parent);
                for (const auto &[port, child] : kids) {
                    dg.mix(port);
                    dg.mix(child);
                }
            }
        }
    }
    EXPECT_EQ(dg.h, 0xae2894f139491fcbULL);
}

TEST(RouteTableTest, MulticastTreeCoversMembersOnce)
{
    // On fabrics where some routes detour around a down->up turn,
    // every member set of the battery gets a hardware tree: one
    // parent per hub, every member attached, and every root->member
    // tree path up*-down*-legal.
    std::vector<FabricGraph> fabrics{graphOf(describeTorus2D(4, 4, 0)),
                                     graphOf(describeTorus2D(3, 5, 0))};
    for (FabricGraph &g : irregularFabrics())
        fabrics.push_back(g);

    for (std::size_t i = 0; i < fabrics.size(); ++i) {
        SCOPED_TRACE("fabric " + std::to_string(i));
        const FabricGraph &g = fabrics[i];
        RouteTable t = RouteTable::compile(g);
        std::vector<std::vector<int>> cdg(
            static_cast<std::size_t>(g.numLinks()) * 2);
        for (const auto &[s, members] :
             memberBattery(t.numHubs(), 100 + i)) {
            if (!std::all_of(members.begin(), members.end(),
                             [&](int m) { return t.reachable(s, m); }))
                continue;
            RouteTable::McTree tree = t.multicastTree(s, members);
            ASSERT_TRUE(tree.ok) << "source " << s;

            // parentOf[child]: the hop from its parent into it.
            std::vector<RouteTable::PathHop> parentOf(
                static_cast<std::size_t>(g.numHubs()));
            for (const auto &[parent, kids] : tree.children)
                for (const auto &[port, child] : kids) {
                    auto &p = parentOf[static_cast<std::size_t>(child)];
                    ASSERT_NE(child, s) << "root grafted as a child";
                    ASSERT_EQ(p.hub, -1)
                        << "hub " << child << " has two parents";
                    p = RouteTable::PathHop{parent, port};
                }
            for (int m : members) {
                std::vector<RouteTable::PathHop> hops;
                for (int h = m; h != s;) {
                    const auto &p = parentOf[static_cast<std::size_t>(h)];
                    ASSERT_GE(p.hub, 0) << "member " << m << " detached";
                    ASSERT_LT(hops.size(),
                              static_cast<std::size_t>(g.numHubs()));
                    hops.push_back(p);
                    h = p.hub;
                }
                std::reverse(hops.begin(), hops.end());
                checkHops(g, t, s, m, hops, cdg);
            }
        }
    }
}

TEST(RouteTableTest, MulticastRefusesGraftWithDownUpTurn)
{
    // From hub 9, member 3's route climbs to hub 1 and falls to hub 3,
    // so the tree holds hub 3 in phase down; member 2's route passes
    // hub 3 still climbing and leaves it upward.  Grafting member 2 at
    // hub 3 would turn down->up, so the tree is refused (callers then
    // unicast); in the other member order both grafts are legal.
    FabricGraph g = graphOf(describeRandomRegular(22, 10, 3, 0));
    RouteTable t = RouteTable::compile(g);
    ASSERT_TRUE(t.reachable(9, 3) && t.reachable(9, 2));
    EXPECT_FALSE(t.multicastTree(9, {3, 2}).ok);
    EXPECT_TRUE(t.multicastTree(9, {2, 3}).ok);
}

// ----- the live topology: lazy compile + cache audit ----------------

TEST(RouteTableTest, TopologyCompilesLazilyAndOnLinkEvents)
{
    sim::EventQueue eq;
    auto topo = buildTopology(eq, describeMesh2D(3, 3, 1));
    EXPECT_EQ(topo->tableCompiles(), 0u);

    Endpoint a{0, 0}, b{8, 0};
    Route r1 = topo->route(a, b);
    EXPECT_FALSE(r1.empty());
    EXPECT_EQ(topo->tableCompiles(), 1u);

    // More queries, same link state: no recompiles.
    for (int h = 0; h < 9; ++h)
        (void)topo->route(a, Endpoint{h, 0});
    (void)topo->reachable(0, 8);
    EXPECT_EQ(topo->tableCompiles(), 1u);

    topo->markLinkDownBetween(0, 1);
    EXPECT_EQ(topo->tableCompiles(), 1u); // lazy: not yet
    Route r2 = topo->route(a, b);
    EXPECT_EQ(topo->tableCompiles(), 2u);
    EXPECT_FALSE(r2.empty());

    topo->markLinkUpBetween(0, 1);
    EXPECT_EQ(topo->route(a, b), r1); // healed: original path back
    EXPECT_EQ(topo->tableCompiles(), 3u);
}

TEST(RouteTableTest, DirectoryCacheAuditOnIrregularGraph)
{
    // The route-cache audit of the issue: on an irregular fabric, a
    // linkVersion bump while routes are cached must invalidate them
    // (stale routes would steer worms into the dead trunk), and the
    // fail -> recover cycle must restore the original shortest path
    // deterministically.
    TopologyDescription d = describeRandomRegular(3, 10, 3, 2);
    sim::EventQueue eq;
    auto topo = buildTopology(eq, d);
    transport::NetworkDirectory dir(*topo);

    // Two CABs whose hubs are as far apart as the fabric allows.
    const RouteTable &table = topo->routeTable();
    std::size_t fromCab = 0, toCab = 0;
    int best = -1;
    for (std::size_t i = 0; i < d.cabs.size(); ++i) {
        int dist = table.dist(d.cabs[0].hub, d.cabs[i].hub);
        if (dist > best) {
            best = dist;
            toCab = i;
        }
    }
    ASSERT_GE(best, 2) << "degree-3 graph of 10 hubs has diameter 2+";
    dir.registerCab(1, Endpoint{d.cabs[fromCab].hub,
                                d.cabs[fromCab].port});
    dir.registerCab(2, Endpoint{d.cabs[toCab].hub,
                                d.cabs[toCab].port});

    Route orig = dir.route(1, 2);
    ASSERT_GE(orig.size(), 2u);
    std::uint64_t v0 = topo->linkVersion();

    // Kill the first trunk the cached route rides.
    topo->markLinkDown(orig[0].hubId, orig[0].outPort);
    EXPECT_GT(topo->linkVersion(), v0);
    Route around = dir.route(1, 2);
    EXPECT_NE(around, orig) << "stale route served from cache";
    EXPECT_FALSE(around.empty()) << "graph stays connected";
    EXPECT_EQ(dir.reroutes(), 1u);

    // Heal: the original shortest path comes back bit for bit.
    topo->markLinkUp(orig[0].hubId, orig[0].outPort);
    EXPECT_EQ(dir.route(1, 2), orig);
    EXPECT_EQ(dir.reroutes(), 2u);

    // And the whole sequence is deterministic: a fresh build of the
    // same description yields the identical original route.
    sim::EventQueue eq2;
    auto topo2 = buildTopology(eq2, d);
    transport::NetworkDirectory dir2(*topo2);
    dir2.registerCab(1, Endpoint{d.cabs[fromCab].hub,
                                 d.cabs[fromCab].port});
    dir2.registerCab(2, Endpoint{d.cabs[toCab].hub,
                                 d.cabs[toCab].port});
    EXPECT_EQ(dir2.route(1, 2), orig);
}

TEST(RouteTableTest, GraphApiRejectsNonsense)
{
    FabricGraph g(2);
    g.addLink(0, 15, 1, 15);
    EXPECT_THROW(g.addLink(0, 14, 0, 13), sim::FatalError);
    EXPECT_THROW(g.addLink(0, 14, 2, 13), sim::FatalError);
    EXPECT_EQ(g.linkAtPort(0, 15), 0);
    EXPECT_EQ(g.linkAtPort(0, 3), -1);
}
