"""The structure pass against the routines it replaced, kept here as references.

Each reference is the earlier entry-by-entry form: the lattice closed under
sums of every pair of members, primality tested on every pair of elements
outside the ideal, and nilpotency found by multiplying by a up to |R| times.
The package's kernels (one generator added at a time, cosets taken once,
coset representatives, repeated squaring) must give the same sets.
"""

import pytest

from ringlab.modules import all_submodules
from ringlab.rings import (
    Ideal,
    all_ideals,
    is_prime_ideal,
    maximal_ideals,
    min_primes,
    nilradical,
    principal_ideals,
    subgroup_sum,
)

from test_acceptance import PAIR_SPECS, RING_SPECS, pair, ring


def reference_sum(add_table, A, B):
    out = set()
    for a in A:
        out.update(add_table[a][b] for b in B)
    return frozenset(out)


def reference_lattice(add_table, cyclic):
    """Close a family of subgroups under sums of every pair of members."""
    seen = set(cyclic)
    worklist = list(seen)
    while worklist:
        cur = worklist.pop()
        for other in list(seen):
            s = reference_sum(add_table, cur, other)
            if s not in seen:
                seen.add(s)
                worklist.append(s)
    return seen


def reference_is_prime(R, members):
    if len(members) == R.size:
        return False
    outside = [a for a in R.elements() if a not in members]
    return all(R.mul(a, b) not in members for a in outside for b in outside)


def reference_nilradical(R):
    nil = set()
    for a in R.elements():
        p = a
        for _ in range(R.size):
            if p == R.zero:
                nil.add(a)
                break
            p = R.mul(a, p)
    return frozenset(nil)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_ring_structure_matches_references(spec):
    R = ring(spec)
    pids = {frozenset(R.mul(a, b) for b in R.elements()) for a in R.elements()}
    assert set(principal_ideals(R)) == pids
    lattice = [I.members for I in all_ideals(R)]
    assert set(lattice) == reference_lattice(R.add_table, pids)
    assert lattice == sorted(lattice, key=lambda m: (len(m), sorted(m)))
    primes = [m for m in lattice if reference_is_prime(R, m)]
    assert [m for m in lattice if is_prime_ideal(R, Ideal(R, m))] == primes
    proper = [m for m in lattice if len(m) < R.size]
    assert [I.members for I in maximal_ideals(R)] == [m for m in proper if not any(m < n for n in proper)]
    assert [I.members for I in min_primes(R)] == [m for m in primes if not any(n < m for n in primes)]
    assert nilradical(R).members == reference_nilradical(R)


@pytest.mark.parametrize("ring_spec,module_spec", PAIR_SPECS)
def test_submodule_lattice_matches_reference(ring_spec, module_spec):
    R, M = pair(ring_spec, module_spec)
    cyclic = {frozenset(M.act(r, x) for r in R.elements()) for x in M.elements()}
    assert set(all_submodules(M)) == reference_lattice(M.add_table, cyclic)


@pytest.mark.parametrize("spec", ["Z12", "Z2 x Z4", "idealize(Z4,self)", "Z2[t]/(t^3)"])
def test_subgroup_sum_matches_reference(spec):
    R = ring(spec)
    lattice = [I.members for I in all_ideals(R)]
    for A in lattice:
        for B in lattice:
            assert subgroup_sum(R.add_table, A, B) == reference_sum(R.add_table, A, B)
