#include "topo/route_table.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"
#include "topo/description.hh"

namespace nectar::topo {

// --------------------------------------------------------------------
// FabricGraph.
// --------------------------------------------------------------------

FabricGraph::FabricGraph(int numHubs)
{
    if (numHubs < 0)
        sim::fatal("FabricGraph: negative hub count");
    _adj.resize(static_cast<std::size_t>(numHubs));
}

int
FabricGraph::addLink(int a, hub::PortId pa, int b, hub::PortId pb,
                     bool up)
{
    if (a < 0 || a >= numHubs() || b < 0 || b >= numHubs())
        sim::fatal("FabricGraph::addLink: bad hub index");
    if (a == b)
        sim::fatal("FabricGraph::addLink: self-link");
    int index = numLinks();
    _links.push_back(Link{a, pa, b, pb, up});
    _adj[static_cast<std::size_t>(a)].push_back(Adj{b, pa, index});
    _adj[static_cast<std::size_t>(b)].push_back(Adj{a, pb, index});
    return index;
}

void
FabricGraph::setLinkUp(int linkIndex, bool up)
{
    if (linkIndex < 0 || linkIndex >= numLinks())
        sim::fatal("FabricGraph::setLinkUp: bad link index");
    _links[static_cast<std::size_t>(linkIndex)].up = up;
}

const std::vector<FabricGraph::Adj> &
FabricGraph::adjacencyOf(int hub) const
{
    if (hub < 0 || hub >= numHubs())
        sim::fatal("FabricGraph::adjacencyOf: bad hub index");
    return _adj[static_cast<std::size_t>(hub)];
}

const FabricGraph::Link &
FabricGraph::linkAt(int i) const
{
    if (i < 0 || i >= numLinks())
        sim::fatal("FabricGraph::linkAt: bad link index");
    return _links[static_cast<std::size_t>(i)];
}

int
FabricGraph::linkAtPort(int hub, hub::PortId port) const
{
    for (int i = 0; i < numLinks(); ++i) {
        const Link &l = _links[static_cast<std::size_t>(i)];
        if ((l.a == hub && l.pa == port) ||
            (l.b == hub && l.pb == port))
            return i;
    }
    return -1;
}

FabricGraph
FabricGraph::ofDescription(const TopologyDescription &d)
{
    FabricGraph g(d.numHubs());
    for (const TrunkDecl &t : d.trunks)
        g.addLink(t.a, t.pa, t.b, t.pb);
    return g;
}

// --------------------------------------------------------------------
// Orientation: BFS spanning forest over the links currently up.
// --------------------------------------------------------------------

void
RouteTable::orient()
{
    const int n = _graph.numHubs();
    std::vector<int> depth(static_cast<std::size_t>(n), -1);
    for (int root = 0; root < n; ++root) {
        if (depth[static_cast<std::size_t>(root)] != -1)
            continue;
        depth[static_cast<std::size_t>(root)] = 0;
        std::deque<int> frontier{root};
        while (!frontier.empty()) {
            int h = frontier.front();
            frontier.pop_front();
            for (const FabricGraph::Adj &a : _graph.adjacencyOf(h)) {
                if (!_graph.linkUp(a.linkIndex))
                    continue;
                auto un = static_cast<std::size_t>(a.neighbor);
                if (depth[un] == -1) {
                    depth[un] =
                        depth[static_cast<std::size_t>(h)] + 1;
                    frontier.push_back(a.neighbor);
                }
            }
        }
    }

    _upEnd.assign(static_cast<std::size_t>(_graph.numLinks()), -1);
    for (int i = 0; i < _graph.numLinks(); ++i) {
        const FabricGraph::Link &l = _graph.linkAt(i);
        auto keyA = std::make_pair(
            depth[static_cast<std::size_t>(l.a)], l.a);
        auto keyB = std::make_pair(
            depth[static_cast<std::size_t>(l.b)], l.b);
        _upEnd[static_cast<std::size_t>(i)] =
            keyA < keyB ? l.a : l.b;
    }
}

// --------------------------------------------------------------------
// Per-source compilation.
// --------------------------------------------------------------------

RouteTable::Source
RouteTable::compileSource(int s) const
{
    // BFS over (hub, phase) states.  From an up state every live edge
    // is traversable (up moves keep phase up); from a down state only
    // down moves are.  First state discovered per hub is that hub's
    // winner; routes replay the state preds.
    const auto n = static_cast<std::size_t>(_graph.numHubs());
    Source src;
    src.dist.assign(n, -1);
    src.winner.assign(n, phaseNone);
    src.spred.assign(n * 2, StatePred{});
    std::vector<int> sdist(n * 2, -1);

    std::deque<std::pair<int, std::uint8_t>> frontier;
    src.spred[stateOf(s, phaseUp)].seen = true;
    sdist[stateOf(s, phaseUp)] = 0;
    src.winner[static_cast<std::size_t>(s)] = phaseUp;
    src.dist[static_cast<std::size_t>(s)] = 0;
    frontier.emplace_back(s, phaseUp);
    while (!frontier.empty()) {
        auto [h, ph] = frontier.front();
        frontier.pop_front();
        for (const FabricGraph::Adj &a : _graph.adjacencyOf(h)) {
            if (!_graph.linkUp(a.linkIndex))
                continue;
            bool movesUp = upMove(a.linkIndex, a.neighbor);
            if (ph == phaseDown && movesUp)
                continue; // the forbidden down->up turn
            std::uint8_t nph =
                (ph == phaseUp && movesUp) ? phaseUp : phaseDown;
            std::size_t ns = stateOf(a.neighbor, nph);
            if (src.spred[ns].seen)
                continue;
            src.spred[ns] = StatePred{h, ph, a.myPort, true};
            sdist[ns] = sdist[stateOf(h, ph)] + 1;
            auto un = static_cast<std::size_t>(a.neighbor);
            if (src.winner[un] == phaseNone) {
                src.winner[un] = nph;
                src.dist[un] = sdist[ns];
            }
            frontier.emplace_back(a.neighbor, nph);
        }
    }
    return src;
}

RouteTable
RouteTable::compile(const FabricGraph &g)
{
    RouteTable t;
    t._graph = g;
    t.orient();
    t._sources.reserve(static_cast<std::size_t>(g.numHubs()));
    for (int s = 0; s < g.numHubs(); ++s)
        t._sources.push_back(t.compileSource(s));
    return t;
}

// --------------------------------------------------------------------
// Queries.
// --------------------------------------------------------------------

bool
RouteTable::reachable(int from, int to) const
{
    return dist(from, to) >= 0;
}

int
RouteTable::dist(int from, int to) const
{
    if (from < 0 || from >= numHubs() || to < 0 || to >= numHubs())
        sim::fatal("RouteTable::dist: bad hub index");
    return _sources[static_cast<std::size_t>(from)]
        .dist[static_cast<std::size_t>(to)];
}

bool
RouteTable::path(int from, int to, std::vector<PathHop> &hops) const
{
    hops.clear();
    if (dist(from, to) < 0)
        return false;
    const Source &src = _sources[static_cast<std::size_t>(from)];
    int h = to;
    std::uint8_t ph = src.winner[static_cast<std::size_t>(to)];
    while (h != from || ph != phaseUp) {
        const StatePred &sp = src.spred[stateOf(h, ph)];
        hops.push_back(PathHop{sp.prevHub, sp.port});
        h = sp.prevHub;
        ph = sp.prevPhase;
    }
    std::reverse(hops.begin(), hops.end());
    return true;
}

int
RouteTable::upEndOf(int linkIndex) const
{
    if (linkIndex < 0 ||
        linkIndex >= static_cast<int>(_upEnd.size()))
        sim::fatal("RouteTable::upEndOf: bad link index");
    return _upEnd[static_cast<std::size_t>(linkIndex)];
}

// --------------------------------------------------------------------
// Multicast trees.
// --------------------------------------------------------------------

RouteTable::McTree
RouteTable::multicastTree(int from,
                          const std::vector<int> &destHubs) const
{
    if (from < 0 || from >= numHubs())
        sim::fatal("RouteTable::multicastTree: bad hub index");
    for (int d : destHubs)
        if (d < 0 || d >= numHubs())
            sim::fatal("RouteTable::multicastTree: bad hub index");
    const Source &src = _sources[static_cast<std::size_t>(from)];

    // Graft each member's compiled path onto the tree where it first
    // meets it.  A state's phase says which way the move into it went
    // (phase up only after up moves, and every move into a down state
    // is a down move), so replaying the graft from the junction's
    // tree phase keeps the path's own phases, except that an up move
    // out of a junction the tree holds in phase down is a down->up
    // turn: then no legal tree is built here and ok stays false.
    McTree t;
    std::vector<std::uint8_t> treePhase(
        static_cast<std::size_t>(numHubs()), phaseNone);
    treePhase[static_cast<std::size_t>(from)] = phaseUp;
    std::vector<std::pair<int, std::uint8_t>> graft; // member first
    for (int d : destHubs) {
        if (src.dist[static_cast<std::size_t>(d)] < 0)
            return t; // unreachable member
        graft.clear();
        int h = d;
        std::uint8_t ph = src.winner[static_cast<std::size_t>(d)];
        while (treePhase[static_cast<std::size_t>(h)] == phaseNone) {
            graft.emplace_back(h, ph);
            const StatePred &sp = src.spred[stateOf(h, ph)];
            h = sp.prevHub;
            ph = sp.prevPhase;
        }
        if (graft.empty())
            continue; // already covered
        if (treePhase[static_cast<std::size_t>(h)] == phaseDown &&
            graft.back().second == phaseUp)
            return t;
        for (auto it = graft.rbegin(); it != graft.rend(); ++it) {
            auto [child, cph] = *it;
            t.children[h].emplace_back(
                src.spred[stateOf(child, cph)].port, child);
            treePhase[static_cast<std::size_t>(child)] = cph;
            h = child;
        }
    }
    t.ok = true;
    return t;
}

} // namespace nectar::topo
