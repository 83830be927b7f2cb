"""Cross-validation of topology geometry against networkx.

Each topology is exported to an undirected networkx graph built from its
own ``neighbors`` links, and its closed-form distances and diameter are
checked against networkx's independent shortest-path implementation.
"""

import networkx as nx
import pytest

from repro.mesh.topology import TOPOLOGY_NAMES, Mesh, Torus, build_topology


def to_networkx(topology):
    """The topology as an undirected graph; every link appears once."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes())
    for node in topology.nodes():
        for nb in topology.neighbors(node):
            graph.add_edge(node, nb)
    return graph


class TestToNetworkx:
    def test_mesh_edge_count(self):
        g = to_networkx(Mesh(5))
        assert g.number_of_nodes() == 25
        assert g.number_of_edges() == 2 * 5 * 4  # 2 n (n-1)

    def test_torus_edge_count(self):
        g = to_networkx(Torus(5))
        assert g.number_of_edges() == 2 * 25  # 2 n^2

    @pytest.mark.parametrize("topo_cls", [Mesh, Torus])
    def test_distances_match_reference(self, topo_cls):
        """Our closed-form distance equals networkx shortest paths."""
        topo = topo_cls(6)
        g = to_networkx(topo)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for a in topo.nodes():
            for b in topo.nodes():
                assert topo.distance(a, b) == lengths[a][b], (a, b)

    @pytest.mark.parametrize("topo_cls,n", [(Mesh, 7), (Torus, 7), (Torus, 8)])
    def test_diameter_matches_reference(self, topo_cls, n):
        topo = topo_cls(n)
        g = to_networkx(topo)
        assert topo.diameter == nx.diameter(g)

    def test_mesh_connected(self):
        assert nx.is_connected(to_networkx(Mesh(4, 9)))

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("n", [3, 4])
    def test_registered_topology_matches_reference(self, name, n):
        """Every registered topology, odd and even sides: distance and
        diameter equal networkx's, and the links are symmetric."""
        topo = build_topology(name, n)
        for a in topo.nodes():
            for b in topo.neighbors(a):
                assert a in topo.neighbors(b), (name, a, b)
        g = to_networkx(topo)
        assert g.number_of_nodes() == topo.num_nodes
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for a in topo.nodes():
            for b in topo.nodes():
                assert topo.distance(a, b) == lengths[a][b], (name, a, b)
        assert topo.diameter == nx.diameter(g)
