"""The structure pass against the routines it replaced, kept here as references.

Each reference is the earlier entry-by-entry form: the lattice closed under
sums of every pair of members, primality tested on every pair of elements
outside the ideal, nilpotency found by multiplying by a up to |R| times, and
generated subgroups closed element by element under addition. The package's
kernels (one generator added at a time, cosets taken once, coset
representatives, repeated squaring, sums of subgroups) must give the same sets.
"""

from itertools import combinations_with_replacement, product

import pytest

from ringlab.modules import all_submodules, make_self_module, submodule_generated
from ringlab.rings import (
    all_ideals,
    generated_ideal,
    ideal_product,
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


def reference_closure(add_table, seed):
    """The additive subgroup generated by seed, by breadth-first search over sums."""
    gens = list(set(seed) | {0})
    members = {0}
    frontier = [0]
    while frontier:
        row = add_table[frontier.pop()]
        new = set(map(row.__getitem__, gens)) - members
        members |= new
        frontier.extend(new)
    return frozenset(members)


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
    lattice = [I for I in all_ideals(R)]
    assert set(lattice) == reference_lattice(R.add_table, pids)
    assert lattice == sorted(lattice, key=lambda m: (len(m), sorted(m)))
    primes = [m for m in lattice if reference_is_prime(R, m)]
    assert [m for m in lattice if is_prime_ideal(R, m)] == primes
    proper = [m for m in lattice if len(m) < R.size]
    assert [I for I in maximal_ideals(R)] == [m for m in proper if not any(m < n for n in proper)]
    assert [I for I in min_primes(R)] == [m for m in primes if not any(n < m for n in primes)]
    assert nilradical(R) == reference_nilradical(R)


@pytest.mark.parametrize("ring_spec,module_spec", PAIR_SPECS)
def test_submodule_lattice_matches_reference(ring_spec, module_spec):
    R, M = pair(ring_spec, module_spec)
    cyclic = {frozenset(M.act(r, x) for r in R.elements()) for x in M.elements()}
    assert set(all_submodules(M)) == reference_lattice(M.add_table, cyclic)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_ideals_are_the_submodules_of_the_ring_over_itself(spec):
    # principal ideals come from the rows of mul_table, cyclic submodules from its columns
    R = ring(spec)
    assert all_ideals(R) == all_submodules(make_self_module(R))


@pytest.mark.parametrize("spec", ["Z12", "Z2 x Z4", "idealize(Z4,self)", "Z2[t]/(t^3)"])
def test_subgroup_sum_matches_reference(spec):
    R = ring(spec)
    lattice = [I for I in all_ideals(R)]
    for A in lattice:
        for B in lattice:
            assert subgroup_sum(R.add_table, A, B) == reference_sum(R.add_table, A, B)


SMALL_RING_SPECS = [spec for spec in RING_SPECS if ring(spec).size <= 64]
# Z2[t,s]/(t,s)^3: m*m holds t^2 + ts + s^2, which is no product of two elements,
# so IJ is larger than the union of the sets aJ
NOT_UNION_OF_PRODUCTS = "quot(Z2[t]/(t^3)[t]/(t^3),[32,128])"


@pytest.mark.parametrize("spec", SMALL_RING_SPECS)
def test_generated_ideal_matches_reference(spec):
    R = ring(spec)
    # <a, b> depends on b only through bR, so b runs over one generator of each principal ideal
    for a, b in product(R.elements(), sorted(principal_ideals(R).values())):
        seed = {R.mul(r, g) for r in R.elements() for g in (a, b)}
        assert generated_ideal(R, [a, b]) == reference_closure(R.add_table, seed), (a, b)


@pytest.mark.parametrize("spec", RING_SPECS + [NOT_UNION_OF_PRODUCTS])
def test_ideal_product_matches_reference(spec):
    R = ring(spec)
    lattice = all_ideals(R)
    for I in lattice:
        for J in lattice:
            seed = {R.mul(a, b) for a in I for b in J}
            assert ideal_product(R, I, J) == reference_closure(R.add_table, seed)


@pytest.mark.parametrize("ring_spec,module_spec", PAIR_SPECS)
def test_submodule_generated_matches_reference(ring_spec, module_spec):
    R, M = pair(ring_spec, module_spec)
    for x, y in combinations_with_replacement(M.elements(), 2):
        seed = {M.act(r, g) for r in R.elements() for g in (x, y)}
        assert submodule_generated(M, [x, y]) == reference_closure(M.add_table, seed), (x, y)
