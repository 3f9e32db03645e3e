"""The scenario graphs against networkx, their oracle.

``power_law_topology``, ``waxman_topology`` and ``bfs_customer_provider``
reproduce networkx 3.x's ``barabasi_albert_graph``, ``waxman_graph`` (with
components stitched in node order) and ``bfs_edges`` over
``to_networkx().to_undirected()`` draw for draw, so each is compared here
with a topology built the way the generators built it through networkx.
No runtime path imports networkx: the last tests generate every family and
run a pooled campaign in an interpreter where ``import networkx`` fails.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.dn.network import Topology
from repro.scenarios import (
    POLICY_KINDS,
    bfs_customer_provider,
    first_triangle,
    generate_scenario,
    scenario_families,
)
from repro.scenarios.graphs import power_law_topology, waxman_topology

SRC = Path(__file__).resolve().parents[2] / "src"

SIZES = list(range(2, 70)) + [128, 256]
SEEDS = range(6)
WAXMAN_SHAPES = [(0.6, 0.3), (0.4, 0.1), (1.0, 0.8)]


def networkx_topology(graph: "nx.Graph", seed: int, max_cost: int = 5) -> Topology:
    """A networkx graph converted as the generators converted it: sorted
    nodes, then sorted edges with costs drawn from ``random.Random(seed)``."""

    rng = random.Random(seed)
    topo = Topology(default_delay=0.01)
    for node in sorted(graph.nodes):
        topo.add_node(node)
    for src, dst in sorted(graph.edges):
        topo.add_link(src, dst, cost=rng.randint(1, max_cost))
    return topo


def stitched(graph: "nx.Graph", seed: int) -> "nx.Graph":
    rng = random.Random(seed)
    components = [sorted(c) for c in nx.connected_components(graph)]
    for previous, current in zip(components, components[1:]):
        graph.add_edge(rng.choice(previous), rng.choice(current))
    return graph


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_law_equals_barabasi_albert(m):
    for n in SIZES:
        if m >= n:
            continue
        for seed in SEEDS:
            expected = networkx_topology(nx.barabasi_albert_graph(n, m, seed=seed), seed)
            got = power_law_topology(n, attachments=m, seed=seed)
            assert got.export_state() == expected.export_state(), (n, m, seed)


@pytest.mark.parametrize("alpha, beta", WAXMAN_SHAPES)
def test_waxman_equals_networkx(alpha, beta):
    components = 0
    for n in SIZES:
        for seed in SEEDS:
            graph = nx.waxman_graph(n, alpha=alpha, beta=beta, seed=seed)
            components += nx.number_connected_components(graph) - 1
            expected = networkx_topology(stitched(graph, seed), seed)
            got = waxman_topology(n, alpha=alpha, beta=beta, seed=seed)
            assert got.export_state() == expected.export_state(), (n, alpha, beta, seed)
    assert components > 0  # the stitching ran


def scrambled_topology(rng: random.Random) -> Topology:
    """Shuffled node ids and link order, one-way links, failed links."""

    n = rng.randint(1, 14)
    ids = rng.sample(range(100), n)
    topo = Topology()
    for node in rng.sample(ids, n):
        topo.add_node(node)
    pairs = [(a, b) for a in ids for b in ids if a != b]
    for src, dst in rng.sample(pairs, min(len(pairs), rng.randint(0, 3 * n))):
        topo.add_link(src, dst, symmetric=rng.random() < 0.5)
    for link in topo.links():
        if rng.random() < 0.15:
            topo.fail_link(link.src, link.dst, symmetric=False)
    return topo


def networkx_orientation(topo: Topology, root) -> list:
    """The customer→provider pairs as the orientation read them from
    ``nx.bfs_edges`` (default root: the first node by ``str``)."""

    graph = topo.to_networkx().to_undirected()
    if root is None:
        root = sorted(graph.nodes, key=str)[0]
    return [(child, parent) for parent, child in nx.bfs_edges(graph, root)]


def test_orientation_equals_networkx_bfs_edges():
    rng = random.Random(0)
    for _ in range(300):
        topo = scrambled_topology(rng)
        graph = topo.to_networkx().to_undirected()
        assert topo.up_adjacency() == {node: list(graph.adj[node]) for node in graph}
        for root in [None] + rng.sample(topo.nodes, min(2, topo.node_count)):
            assert bfs_customer_provider(topo, root) == networkx_orientation(topo, root)


def test_orientation_of_generated_topologies():
    for family in ("tree", "power_law", "waxman", "as_hierarchy", "random"):
        topo = generate_scenario(family, size=24, seed=5).topology
        link = topo.up_links()[3]
        topo.fail_link(link.src, link.dst)
        for root in (None, topo.nodes[-1]):
            assert bfs_customer_provider(topo, root) == networkx_orientation(topo, root), family


def test_orientation_rejects_an_unknown_root():
    with pytest.raises(ValueError, match="not a node"):
        bfs_customer_provider(Topology.from_edges([(1, 2)]), root=7)


def test_diameter_equals_networkx():
    topologies = [
        generate_scenario(family, size=size, seed=seed).topology
        for family in ("tree", "power_law", "waxman")
        for size, seed in ((12, 0), (30, 4))
    ]
    failed = generate_scenario("waxman", size=20, seed=2).topology
    for link in failed.up_links():  # the first link that is not a bridge
        failed.fail_link(link.src, link.dst)
        if nx.is_connected(failed.to_networkx().to_undirected()):
            break
        failed.restore_link(link.src, link.dst)
    topologies.append(failed)
    for topo in topologies:
        graph = topo.to_networkx().to_undirected()
        assert nx.is_connected(graph)
        assert topo.diameter() == nx.diameter(graph)
    # a failed link can lengthen the diameter; a cut one disconnects
    line = Topology.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
    assert line.diameter() == 2
    line.fail_link(1, 3)
    assert line.diameter() == 3
    line.fail_link(3, 4)
    assert line.diameter() == 0
    assert Topology.from_edges([]).diameter() == 0


def test_generation_runs_without_networkx(tmp_path):
    """Every family with every policy kind it can host, and a two-worker
    campaign over power_law and waxman with gao_rexford and churn, in an
    interpreter where ``import networkx`` raises."""

    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.harness import CampaignSpec, run_campaign\n"
        "from repro.scenarios import first_triangle, generate_scenario\n"
        "families, kinds, out = sys.argv[1].split(','), sys.argv[2].split(','), sys.argv[3]\n"
        "generated = 0\n"
        "for family in families:\n"
        "    topology = generate_scenario(family, size=12, seed=1).topology\n"
        "    for kind in kinds:\n"
        "        if kind == 'disagree' and first_triangle(topology) is None:\n"
        "            continue\n"
        "        generate_scenario(family, size=12, seed=1, policy=kind, churn_events=2)\n"
        "        generated += 1\n"
        "spec = CampaignSpec(name='no-networkx', families=('power_law', 'waxman'),\n"
        "                    sizes=(12,), policies=('gao_rexford',), seeds=(0, 1),\n"
        "                    churn_events=(2,), record_stale_routes=False)\n"
        "result = run_campaign(spec, out, workers=2, resume=False)\n"
        "statuses = sorted({record.status for record in result.records})\n"
        "print(generated, len(result.records), ','.join(statuses))\n"
    )
    result = subprocess.run(
        [
            sys.executable, "-c", script,
            ",".join(scenario_families()), ",".join(POLICY_KINDS), str(tmp_path / "camp"),
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    generated, records, statuses = result.stdout.split()
    hosts = sum(
        first_triangle(generate_scenario(family, size=12, seed=1).topology) is not None
        for family in scenario_families()
    )
    assert int(generated) == len(scenario_families()) * (len(POLICY_KINDS) - 1) + hosts
    assert int(records) == 4
    assert statuses == "ok"
