import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from bpcodes import algebra
from bpcodes.algebra import (
    FiniteGroup,
    _ProjectiveGroup,
    _pgl2_entries,
    GF2m,
    GroupAlgebraElem,
    ProjMat2,
    build_pgl2,
    build_psl2,
    circulant_lift,
    cyclic_group,
    legendre,
    lift_group_algebra_matrix,
    unipotent_subgroup,
)
from bpcodes.errors import CapExceeded, DimensionMismatch, InvalidModulus, NotPGL
from bpcodes.f2la import F2Matrix


def test_legendre_values():
    assert legendre(1, 7) == 1
    assert legendre(14, 7) == 0
    # oracle: squares mod 13 are {1,3,4,9,10,12}
    squares = {(x * x) % 13 for x in range(1, 13)}
    assert 5 not in squares and legendre(5, 13) == -1
    for a in range(1, 13):
        assert legendre(a, 13) == (1 if a in squares else -1)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(InvalidModulus):
        legendre(3, 8)
    with pytest.raises(InvalidModulus):
        legendre(3, 9)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.sampled_from([3, 7, 13, 29]))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


@pytest.mark.parametrize("q,order", [(3, 24), (7, 336), (13, 2184)])
def test_pgl_orders(q, order):
    assert build_pgl2(q).order == order == q * (q * q - 1)


@pytest.mark.parametrize("q,order", [(3, 12), (5, 60), (7, 168)])
def test_psl_orders(q, order):
    assert build_psl2(q).order == order


def test_pgl3_closure_and_inverses():
    g = build_pgl2(3)
    for i in range(g.order):
        assert g.mul(i, g.inv(i)) == g.identity
        for j in range(g.order):
            g.mul(i, j)  # raises if the product leaves the table


# -- index-level products against the element-object path ----------------------


def _element(g, i):
    return ProjMat2(g.q, *g.entries[i].tolist())


def _object_mul(g, i, j):
    """The product of elements i and j through ProjMat2.mul and the index."""
    return int(g.indices_of([_element(g, i).mul(_element(g, j))])[0])


def _object_inv(g, i):
    return int(g.indices_of([_element(g, i).inv()])[0])


def _projective_group(kind, q):
    if kind == "PGL":
        return build_pgl2(q)
    if kind == "PSL":
        return build_psl2(q)
    return unipotent_subgroup(build_pgl2(q))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["PGL", "PSL", "U"]),
    st.sampled_from([5, 7, 11, 13]),
    st.data(),
)
def test_projective_products_match_object_path(kind, q, data):
    g = _projective_group(kind, q)
    idx = st.integers(0, g.order - 1)
    a = np.array(data.draw(st.lists(idx, min_size=1, max_size=12)), dtype=np.int64)
    b = np.array(data.draw(st.lists(idx, min_size=1, max_size=12)), dtype=np.int64)
    # broadcast a column against a row, then elementwise on equal lengths
    grid = g.mul_indices(a[:, None], b)
    assert grid.shape == (len(a), len(b))
    assert grid.tolist() == [[_object_mul(g, i, j) for j in b] for i in a]
    m = min(len(a), len(b))
    assert g.mul_indices(a[:m], b[:m]).tolist() == [_object_mul(g, i, j) for i, j in zip(a[:m], b[:m])]
    assert int(g.mul_indices(int(a[0]), int(b[0]))) == g.mul(int(a[0]), int(b[0]))
    assert g.inverses()[a].tolist() == [_object_inv(g, i) for i in a]
    assert [g.inv(int(i)) for i in a] == [_object_inv(g, i) for i in a]


@pytest.mark.parametrize("kind", ["PGL", "PSL", "U"])
@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_projective_identity_and_inverses_match_object_path(kind, q):
    g = _projective_group(kind, q)
    assert _element(g, g.identity) == ProjMat2.identity(q)
    assert g.inverses().tolist() == [_object_inv(g, i) for i in range(g.order)]


def test_cyclic_and_table_products_match_mul_fn():
    z7 = cyclic_group(7)
    every = np.arange(7)
    assert z7.mul_indices(every[:, None], every).tolist() == [
        [(i + j) % 7 for j in range(7)] for i in range(7)
    ]
    assert z7.inverses().tolist() == [(-i) % 7 for i in range(7)]
    perms = list(itertools.permutations(range(3)))
    s3 = FiniteGroup(perms, lambda x, y: tuple(x[i] for i in y), name="S_3")
    table = s3.mul_indices(np.arange(6)[:, None], np.arange(6))
    for i, x in enumerate(perms):
        for j, y in enumerate(perms):
            assert perms[table[i, j]] == tuple(x[k] for k in y) and table[i, j] == s3.mul(i, j)
    assert not s3.is_abelian() and z7.is_abelian()


def test_product_leaving_the_element_list_is_rejected():
    with pytest.raises(InvalidModulus):
        FiniteGroup([0, 1], lambda a, b: (a + b) % 3)
    # U(5) short of one element fails the closure check below the cap; above
    # it, PGL(2,11) short of one element fails when an inverse is looked up
    with pytest.raises(InvalidModulus):
        _ProjectiveGroup(5, unipotent_subgroup(build_pgl2(5)).entries[:-1], name="U(5)-1")
    with pytest.raises(InvalidModulus):
        _ProjectiveGroup(11, build_pgl2(11).entries[:-1], name="PGL(2,11)-1")


# -- products a block at a time ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["PGL(2,5)", "PSL(2,7)"]),
    st.integers(1, 7),
    npst.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, min_side=0, max_side=6),
    st.data(),
)
def test_blocked_products_match_one_block(name, block, shapes, data):
    """0-d, 1-d, 2-d, 3-d, empty and column x row broadcasts, a few
    entries a block, against the same product in one pass."""
    g = build_pgl2(5) if name == "PGL(2,5)" else build_psl2(7)
    a, b = (
        data.draw(npst.arrays(np.int64, shape, elements=st.integers(0, g.order - 1)))
        for shape in shapes.input_shapes
    )
    want = g._products(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", block)
        got = g.mul_indices(a, b)
    assert got.shape == want.shape == shapes.result_shape
    assert got.dtype == np.int64 and np.array_equal(got, want)


class _Unchecked(_ProjectiveGroup):
    """A projective element list without the identity, inverse and
    closure checks, so products may leave it."""

    def _derive(self, name, order):
        self.name, self.order = name, order


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_product_leaving_the_group_raises_from_a_later_block(block):
    """{1, g, g^-1} for g of order 5 in PGL(2,5): every product in a
    column of identities times g stays in it, the last one, g * g, leaves."""
    pgl = build_pgl2(5)
    g = int(np.argmax(pgl.element_orders() == 5))
    entries = pgl.entries[[pgl.identity, g, pgl.inv(g)]]
    some = _Unchecked(5, entries, name="not a group")
    a = np.array([0] * 8 + [1])[:, None]
    calls = []
    products = _ProjectiveGroup._products

    def counted(self, x, y):
        calls.append(np.broadcast(x, y).size)
        return products(self, x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", block)
        mp.setattr(_ProjectiveGroup, "_products", counted)
        with pytest.raises(InvalidModulus, match="^product leaves the group$"):
            some.mul_indices(a, 1)
        assert len(calls) == -(-9 // block) > 1 and max(calls) <= block
        # the closure check of the full constructor raises the same
        with pytest.raises(InvalidModulus, match="^product leaves the group$"):
            _ProjectiveGroup(5, entries, name="not a group")
    with pytest.raises(InvalidModulus, match="^product leaves the group$"):
        some.mul_indices(a, 1)


def test_pgl7_closure_check_memory_is_bounded():
    # PGL(2,7) (order 336) gets the closure check of all 112,896 products;
    # in one pass their temporaries took an 11.8 MB peak
    entries = _pgl2_entries(7)
    tracemalloc.start()
    try:
        g = _ProjectiveGroup(7, entries, name="PGL(2,7)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 336 and g.same_table(build_pgl2(7))
    assert peak < 3_000_000


def test_table_groups_above_the_cap_are_rejected():
    with pytest.raises(CapExceeded):
        FiniteGroup(range(401), lambda a, b: (a + b) % 401)
    assert cyclic_group(401).mul(400, 2) == 1


def test_canonical_form_first_nonzero_is_one():
    g = build_pgl2(7)
    for e in g.entries.tolist():
        first = next(x for x in e if x != 0)
        assert first == 1


@pytest.mark.parametrize("q", [7, 13])
def test_unipotent_subgroup(q):
    g = build_pgl2(q)
    u = unipotent_subgroup(g)
    assert u.order == q
    gen = int(u.indices_of([ProjMat2(q, 1, 1, 0, 1)])[0])
    assert u.element_orders()[gen] == q
    # determinant class of unipotents is the square class
    for a, b, c, d in u.entries.tolist():
        assert legendre(a * d - b * c, q) == 1


def test_unipotent_rejects_non_pgl():
    with pytest.raises(NotPGL):
        unipotent_subgroup(cyclic_group(5))


# -- the entry arrays against the element lists they replaced -------------------


def _old_pgl2_elements(q):
    """The loop enumeration of PGL(2,q) that the entry array replaced."""
    elems = []
    # canonical forms: first nonzero of (a,b,c,d) equals 1
    for b in range(q):
        for c in range(q):
            for d in range(q):
                if (d - b * c) % q != 0:
                    elems.append(ProjMat2(q, 1, b, c, d))
    for c in range(q):
        for d in range(q):
            if c != 0:  # det = -c must be nonzero
                elems.append(ProjMat2(q, 0, 1, c, d))
    # a = b = 0: det = 0 always; no elements
    return elems


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_projective_entries_match_loop_enumeration(q):
    old = _old_pgl2_elements(q)
    # PSL keeps the square determinant class in PGL order
    old_psl = [e for e in old if legendre(e.a * e.d - e.b * e.c, q) == 1]
    for g, elems in ((build_pgl2(q), old), (build_psl2(q), old_psl)):
        assert g.entries.tolist() == [[e.a, e.b, e.c, e.d] for e in elems]
        assert g.indices_of(elems).tolist() == list(range(g.order))
        assert not g.entries.flags.writeable
    assert unipotent_subgroup(build_pgl2(q)).entries.tolist() == [[1, x, 0, 1] for x in range(q)]


def test_indices_of_marks_absent_elements():
    q = 7
    psl, pgl = build_psl2(q), build_pgl2(q)
    outside = [e for e in _old_pgl2_elements(q) if legendre(e.a * e.d - e.b * e.c, q) == -1][:3]
    assert psl.indices_of(outside).tolist() == [-1, -1, -1]
    assert (pgl.indices_of(outside) >= 0).all()
    z9, sub = cyclic_group(9), FiniteGroup([0, 3, 6], lambda a, b: (a + b) % 9)
    assert z9.indices_of(sub).tolist() == [0, 3, 6]
    assert z9.indices_of([4, 9]).tolist() == [4, -1]


def _old_element_order(g, i):
    """The scalar loop that the power table replaced."""
    k, acc = 1, i
    while acc != g.identity:
        acc = g.mul(acc, i)
        k += 1
    return k


@pytest.mark.parametrize("name", ["PSL(2,7)", "PGL(2,5)", "Z_15"])
def test_element_orders_and_powers_match_loop(name):
    g = {"PSL(2,7)": build_psl2(7), "PGL(2,5)": build_pgl2(5), "Z_15": cyclic_group(15)}[name]
    orders = g.element_orders()
    assert orders.tolist() == [_old_element_order(g, i) for i in range(g.order)]
    for i in range(0, g.order, 7):
        p = g.powers(i)
        assert len(p) == orders[i] and p[0] == g.identity
        assert p[1:].tolist() == [g.mul(int(x), i) for x in p[:-1]]


def test_group_algebra_identity_and_monomials():
    one = GroupAlgebraElem.one(5)
    x = GroupAlgebraElem(5, 0b10110)
    assert x.mul(one) == x
    ga = GroupAlgebraElem.monomial(5, 2)
    gb = GroupAlgebraElem.monomial(5, 4)
    assert ga.mul(gb) == GroupAlgebraElem.monomial(5, 1)


def test_group_algebra_square_of_one_plus_g():
    x = GroupAlgebraElem(5, 0b00011)  # 1 + g
    assert x.mul(x).coeffs == 0b00101  # 1 + g^2 in characteristic 2


def test_circulant_lift_basics():
    assert circulant_lift(GroupAlgebraElem.one(4)) == F2Matrix.identity(4)
    shift = circulant_lift(GroupAlgebraElem.monomial(3, 1))
    assert shift.to_dense().tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    first_row = circulant_lift(GroupAlgebraElem(3, 0b011)).to_dense()[0].tolist()
    assert first_row == [1, 0, 1]  # row 0 carries coefficients of g^k at col -k


def test_circulant_lift_ring_homomorphism_exhaustive():
    for ell in (2, 3, 5, 7):
        for cx, cy in itertools.product(range(1 << ell), repeat=2):
            x, y = GroupAlgebraElem(ell, cx), GroupAlgebraElem(ell, cy)
            assert circulant_lift(x.mul(y)) == circulant_lift(x).matmul(circulant_lift(y))
            assert circulant_lift(x.add(y)) == circulant_lift(x).add(circulant_lift(y))


def _lift_reference(entries):
    """Entry-by-entry blockwise circulant lift: bit k of entry (i, j) puts
    ones at (i*ell + (s + k) % ell, j*ell + s) for every s."""
    ell = entries[0][0].ell
    ones = []
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            for k in range(ell):
                if (e.coeffs >> k) & 1:
                    for s in range(ell):
                        ones.append((i * ell + (s + k) % ell, j * ell + s))
    return F2Matrix.from_entries(len(entries) * ell, len(entries[0]) * ell, ones)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_matches_entrywise_reference(data):
    ell = data.draw(st.sampled_from([1, 2, 3, 6, 13, 61, 62, 63, 64, 70]))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = [
        [GroupAlgebraElem(ell, data.draw(st.integers(0, (1 << ell) - 1))) for _ in range(cols)]
        for _ in range(rows)
    ]
    assert lift_group_algebra_matrix(entries) == _lift_reference(entries)


def test_lift_rejects_ragged_and_mixed_matrices():
    one3 = GroupAlgebraElem.one(3)
    with pytest.raises(DimensionMismatch):
        lift_group_algebra_matrix([[one3], [one3, one3]])
    with pytest.raises(DimensionMismatch):
        lift_group_algebra_matrix([[one3, GroupAlgebraElem.one(5)]])


def test_gf2m_field_axioms_m4():
    f = GF2m(4)
    assert f.element_order(f.generator()) == 15
    for a in range(1, 16):
        assert f.mul(a, f.inv(a)) == 1
    # distributivity spot checks
    for a, b, c in itertools.product(range(16), repeat=3):
        if a > 5:
            break
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_gf2m_poly_eval():
    f = GF2m(3)
    # p(x) = x^2 + 1 at x = g: g^2 + 1
    g = f.generator()
    assert f.poly_eval([1, 0, 1], g) == f.mul(g, g) ^ 1
