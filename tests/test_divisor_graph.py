"""The successor-map divisor graph against a networkx construction of it.

networkx is a test-only dependency: these tests rebuild the graph the way
the package once did, as an ``nx.DiGraph``, and require the same edges,
labels and BFR/BFM witnesses byte for byte.
"""

import json
import subprocess
import sys

import pytest

from ringlab.factor import divisor_graph, is_bfr
from ringlab.modules import make_self_module
from ringlab.rings import nonunits
from ringlab.specparse import build_module, parse_module_spec

from oracles import module_divisor_graph, reference_is_bfm
from test_acceptance import PAIR_SPECS, RING_SPECS, ring

SPECS = RING_SPECS + [f"Z{n}" for n in range(65, 130)]


def nx_divisor_graph(nx, act_table, size, scalars):
    rows = [(r, act_table[r]) for r in sorted(scalars)]
    G = nx.DiGraph()
    G.add_nodes_from(range(1, size))
    for y in range(1, size):
        first = {}
        for r, row in rows:
            first.setdefault(row[y], r)
        first.pop(0, None)
        G.add_edges_from((x, y, {"label": r}) for x, r in first.items())
    return G


def nx_cycle_witness(nx, G):
    edges = nx.find_cycle(G)
    return {"cycle": [u for u, _ in edges], "labels": [G.edges[u, v]["label"] for u, v in edges]}


def nx_is_bfr(nx, R):
    G = nx_divisor_graph(nx, R.mul_table, R.size, nonunits(R))
    nus = nonunits(R)
    H = G.subgraph([v for v in G.nodes if v in nus]).copy()
    if nx.is_directed_acyclic_graph(H):
        return True, {}
    w = nx_cycle_witness(nx, H)
    w["element"] = w["cycle"][0]
    return False, w


def nx_is_bfm(nx, M):
    G = nx_divisor_graph(nx, M.act_table, M.size, nonunits(M.ring))
    if not nx.is_directed_acyclic_graph(G):
        return False, nx_cycle_witness(nx, G)
    bound = {v: 0 for v in G.nodes}
    for v in reversed(list(nx.topological_sort(G))):
        for _, t in G.out_edges(v):
            bound[v] = max(bound[v], 1 + bound[t])
    return True, {"bounds": {x: bound[x] for x in sorted(bound)}}


@pytest.mark.parametrize("spec", SPECS)
def test_ring_graph_and_witnesses_match_networkx(spec):
    nx = pytest.importorskip("networkx")
    R = ring(spec)
    succ = divisor_graph(R).succ
    G = nx_divisor_graph(nx, R.mul_table, R.size, nonunits(R))
    assert succ[0] == {}
    assert all(list(s) == sorted(s) for s in succ)
    edges = {(x, y, r) for x, s in enumerate(succ) for y, r in s.items()}
    assert edges == set(G.edges(data="label"))
    assert divisor_graph(R).number_of_edges() == G.number_of_edges()
    assert json.dumps(is_bfr(R)) == json.dumps(nx_is_bfr(nx, R))
    M = make_self_module(R)
    assert json.dumps(reference_is_bfm(M)) == json.dumps(nx_is_bfm(nx, M))


@pytest.mark.parametrize("ring_spec,module_spec", PAIR_SPECS)
def test_module_graph_and_bfm_match_networkx(ring_spec, module_spec):
    nx = pytest.importorskip("networkx")
    M = build_module(parse_module_spec(module_spec), ring(ring_spec))
    succ = module_divisor_graph(M).succ
    G = nx_divisor_graph(nx, M.act_table, M.size, nonunits(M.ring))
    assert {(x, y, r) for x, s in enumerate(succ) for y, r in s.items()} == set(G.edges(data="label"))
    assert json.dumps(reference_is_bfm(M)) == json.dumps(nx_is_bfm(nx, M))


@pytest.mark.parametrize("module", ["networkx", "multiprocessing", "concurrent.futures.process"])
def test_cli_import_leaves_networkx_out(module):
    code = f"import sys, ringlab.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": ":".join(sys.path)})
    assert out.stdout.strip() == "False"
