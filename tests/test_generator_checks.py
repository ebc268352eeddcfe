"""The action checks made on a group's generators against the all-pairs and
all-elements loops they replaced, which are kept here as the reference.

Groups: Z_n for n = 1..9, the unipotent subgroups U(5) and U(7), and
Z_3 x Z_3 and S_3 built from explicit tables, and PSL(2,5). Valid action
tables are regular actions, rotations through a character (a
homomorphism to a cyclic group) and disjoint unions of these; corrupted
ones swap two entries of a row, copy one row over another, perturb the
identity row, or compose the rows of one coset of the first generator's
subgroup with a transposition (which only a later generator can detect).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.algebra import FiniteGroup, build_pgl2, build_psl2, cyclic_group, unipotent_subgroup
from bpcodes.complexes import one_complex
from bpcodes.errors import ActionNotChainMap
from bpcodes.f2la import F2Matrix
from bpcodes.products import ComplexWithAction


def _cyclic_power_character(group):
    """(order, k) with element i = g^k(i) for the first element g of full
    order: a character onto Z_order."""
    g = int(np.argmax(group.element_orders() == group.order))
    powers = np.empty(group.order, dtype=np.int64)
    powers[group.powers(g)] = np.arange(group.order)
    return group.order, powers


def _z3z3_characters(group):
    a, b = np.array(group.elements).T
    return [(3, a), (3, b), (3, (a + b) % 3), (3, (a + 2 * b) % 3)]


def _sign_character(group):
    inversions = [sum(x > y for x, y in itertools.combinations(p, 2)) for p in group.elements]
    return [(2, np.array(inversions) % 2)]


def _build_groups():
    groups = {f"Z{n}": cyclic_group(n) for n in range(1, 10)}
    groups["U5"] = unipotent_subgroup(build_pgl2(5))
    groups["U7"] = unipotent_subgroup(build_pgl2(7))
    pairs = [(a, b) for a in range(3) for b in range(3)]
    groups["Z3xZ3"] = FiniteGroup(pairs, lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3))
    perms3 = list(itertools.permutations(range(3)))
    groups["S3"] = FiniteGroup(perms3, lambda x, y: tuple(x[i] for i in y))
    groups["PSL25"] = build_psl2(5)
    characters = {}
    for name, group in groups.items():
        if name == "Z3xZ3":
            characters[name] = _z3z3_characters(group)
        elif name == "S3":
            characters[name] = _sign_character(group)
        elif name == "PSL25":
            characters[name] = []  # perfect: only the trivial character
        else:
            characters[name] = [_cyclic_power_character(group)]
        characters[name].append((1, np.zeros(group.order, dtype=np.int64)))
    return groups, characters


GROUPS, CHARACTERS = _build_groups()
ABELIAN = [name for name in GROUPS if name not in ("S3", "PSL25")]


# -- the replaced checks -------------------------------------------------------


def _all_pairs_is_action_table(group, perms) -> bool:
    """perms[a][perms[b]] == perms[a*b] over all order^2 pairs."""
    p = np.asarray(perms, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != group.order:
        return False
    n = p.shape[1]
    if n and (p.min() < 0 or p.max() >= n):
        return False
    if not np.array_equal(p[group.identity], np.arange(n)):
        return False
    every = np.arange(group.order)
    return all(
        np.array_equal(p[a][p], p[group.mul_indices(a, every)]) for a in range(group.order)
    )


def _all_pairs_is_abelian(group) -> bool:
    every = np.arange(group.order)
    return all(
        np.array_equal(group.mul_indices(a, every), group.mul_indices(every, a))
        for a in range(group.order)
    )


def _first_non_commuting(group, t1, t0, dense):
    """The first element in index order whose permutations do not carry
    the ones of d onto themselves, or None."""
    ones = set(zip(*np.nonzero(dense)))
    for h in range(group.order):
        if {(int(t0[h][r]), int(t1[h][c])) for r, c in ones} != ones:
            return h
    return None


def _closure(group, gens) -> set[int]:
    reached, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [group.mul(x, s) for x in frontier for s in gens]
        frontier = [y for y in dict.fromkeys(frontier) if y not in reached]
        reached.update(frontier)
    return reached


# -- valid and corrupted tables ------------------------------------------------


@st.composite
def _valid_tables(draw, name):
    """A disjoint union of 1-3 regular actions and rotations."""
    group = GROUPS[name]
    every = np.arange(group.order)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["left", "right", "rotation"]))
        if kind == "left":  # h: x -> h x
            pieces.append(group.mul_indices(every[:, None], every))
        elif kind == "right":  # h: x -> x h^-1
            pieces.append(group.mul_indices(every, group.inverses()[:, None]))
        else:  # h: x -> x + t * phi(h) * m / gcd(c, m) on Z_m
            c, phi = draw(st.sampled_from(CHARACTERS[name]))
            m, t = draw(st.integers(1, 8)), draw(st.integers(0, 3))
            step = phi * (m // math.gcd(c, m)) * t
            pieces.append((np.arange(m) + step[:, None]) % m)
    offsets = np.cumsum([0] + [p.shape[1] for p in pieces[:-1]])
    return np.hstack([p + off for p, off in zip(pieces, offsets)])


@st.composite
def _tables(draw):
    fault = draw(st.sampled_from(["none", "swap", "copy_row", "identity_row", "coset"]))
    several = ["Z3xZ3", "S3", "PSL25"]  # the groups with more than one generator
    name = draw(st.sampled_from(several if fault == "coset" else sorted(GROUPS)))
    group = GROUPS[name]
    table = draw(_valid_tables(name)).copy()
    order, n = table.shape
    if fault == "swap":
        h = draw(st.integers(0, order - 1))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[h, [i, j]] = table[h, [j, i]]
    elif fault == "copy_row":
        a, b = draw(st.integers(0, order - 1)), draw(st.integers(0, order - 1))
        table[a] = table[b]
    elif fault == "identity_row":
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(1, max(1, n - 1)))
        table[group.identity, i] = (table[group.identity, i] + k) % n
    elif fault == "coset":
        # a transposition after every row of a coset x<g> other than <g>,
        # g the smallest non-identity element: the law still holds for g
        # (perms[a g] = perms[a] o perms[g] within each coset), so only a
        # later generator can show the fault
        sub = group.powers(1 if group.identity == 0 else 0)
        x = draw(st.sampled_from(np.setdiff1d(np.arange(order), sub).tolist()))
        tau = np.arange(n)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        tau[[i, j]] = tau[[j, i]]
        table[group.mul_indices(x, sub)] = tau[table[group.mul_indices(x, sub)]]
    return name, fault, table


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_action_check_on_generators_matches_all_pairs(case):
    name, fault, table = case
    group = GROUPS[name]
    want = _all_pairs_is_action_table(group, table)
    if fault == "none":
        assert want
    assert group.is_action_table(table) == want


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generators_are_greedy_and_generate(name):
    """Each generator is the first element outside the subgroup of the
    earlier ones, and all of them generate the group."""
    group = GROUPS[name]
    gens = group.generators
    assert all(isinstance(s, int) for s in gens)
    for k, s in enumerate(gens):
        below = _closure(group, gens[:k])
        assert s not in below
        assert set(range(s)) <= below
    assert _closure(group, gens) == set(range(group.order))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_is_abelian_matches_all_pairs(name):
    group = GROUPS[name]
    assert group.is_abelian() == _all_pairs_is_abelian(group) == (name in ABELIAN)


@st.composite
def _acted_one_complexes(draw):
    """Valid tables on both degrees and a differential that is random, a
    set of ones invariant under the group or under the cyclic subgroup of
    element 1 alone (so that in Z_3 x Z_3 a later generator fails first),
    or an invariant set with one entry flipped. Z_3 x Z_3, the abelian
    group here with two generators, is drawn about half the time."""
    name = draw(st.sampled_from(ABELIAN + ["Z3xZ3"] * len(ABELIAN)))
    group = GROUPS[name]
    t1, t0 = draw(_valid_tables(name)), draw(_valid_tables(name))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3]))
    dense = (rng.random((t0.shape[1], t1.shape[1])) < density).astype(np.int64)
    mode = draw(st.sampled_from(["random", "invariant", "subgroup", "flipped"]))
    if mode != "random":
        acting = group.powers(1 % group.order)[:, None] if mode == "subgroup" else slice(None)
        r, c = np.nonzero(dense)
        dense[t0[acting, r], t1[acting, c]] = 1
        if mode == "flipped":
            dense[rng.integers(t0.shape[1]), rng.integers(t1.shape[1])] ^= 1
    return name, t1, t0, dense


@settings(max_examples=300, deadline=None)
@given(_acted_one_complexes())
def test_non_commuting_element_matches_all_elements(case):
    """ActionNotChainMap names the first failing element in index order,
    as the loop over all elements does."""
    name, t1, t0, dense = case
    group = GROUPS[name]
    cx = one_complex(F2Matrix.from_dense(dense))
    want = _first_non_commuting(group, t1, t0, dense)
    if want is None:
        ComplexWithAction(cx, group, {1: t1, 0: t0})
    else:
        message = f"^group element {want} does not commute with d_1$"
        with pytest.raises(ActionNotChainMap, match=message):
            ComplexWithAction(cx, group, {1: t1, 0: t0})
