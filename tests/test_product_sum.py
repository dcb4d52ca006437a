"""The one Yoneda product and the one structure-constant sum.

``yoneda.compose_cochains`` forms every Yoneda product and
``checker.product_sum`` every sum of alpha(X'')_{m+1} * alpha(X')_m over
the structure constants.  The curvature, the certificate's free-ring
square, the intertwiner check and the Yoneda differential are built on
them; the loops each of those once spelled out are kept here as
references, and the shared code must agree with them, in the same order.
"""

import json
import random

import pytest

from ncdef.algebra import format_element
from ncdef.checker import LiftedComplex, _intertwines, curvature, product_sum
from ncdef.massey import _raw_products, advance_order, init_order2
from ncdef.matrix_ring import (Monomial, build_tagged_truncation, concat,
                               format_monomial, label_type)
from ncdef.presets import RunOptions
from ncdef.yoneda import Cochain, Mat, compose_cochains, yoneda_differential

# -- the reference loops ------------------------------------------------------


def _reference_compose(outer, inner):
    """Yoneda product of two 1-cochains: component m is inner_{m+1} * outer_m."""
    assert outer.degree == inner.degree == 1 and outer.j == inner.i
    bundle = outer.bundle
    mats = [inner.mats[m + 1].mul(outer.mats[m]) for m in range(bundle.mmax - 1)]
    return Cochain(bundle, 2, outer.i, inner.j, mats)


def _reference_differential(phi):
    bundle = phi.bundle
    n = phi.degree
    sign = -1 if (n + 1) % 2 else 1
    res_i = bundle.res(phi.i)
    res_j = bundle.res(phi.j)
    mats = []
    for m in range(bundle.mmax - n):
        term = res_j.diff(n + m).mul(phi.mats[m])
        term = term.add(phi.mats[m + 1].mul(res_i.diff(m)).scale(sign))
        mats.append(term)
    return Cochain(bundle, n + 1, phi.i, phi.j, mats)


def _reference_curvature(algebra, system, bundle):
    items = [(algebra.index[label], label, phi) for label, phi in system.items()
             if label in algebra.index and not phi.is_zero()]
    acc = {}
    ncomp = bundle.mmax - 1
    for ia, la, ca in items:
        for ib, lb, cb in items:
            if label_type(la)[1] != label_type(lb)[0]:
                continue
            coords = algebra.product(ia, ib)
            if not coords:
                continue
            terms = _reference_compose(ca, cb).mats
            if all(t.is_zero() for t in terms):
                continue
            for zidx, coeff in coords.items():
                zlabel = algebra.basis[zidx]
                if zlabel not in acc:
                    zi, zj = label_type(zlabel)
                    acc[zlabel] = [Mat(bundle.res(zj).rank(m + 2),
                                       bundle.res(zi).rank(m))
                                   for m in range(ncomp)]
                slot = acc[zlabel]
                for m in range(ncomp):
                    if not terms[m].is_zero():
                        slot[m] = slot[m].add(terms[m].scale(coeff))
    out = {}
    for zlabel, mats in acc.items():
        if any(not m.is_zero() for m in mats):
            zi, zj = label_type(zlabel)
            out[zlabel] = Cochain(bundle, 2, zi, zj, mats)
    return out


def _reference_raw_products(state):
    items = [(label, phi) for label, phi in sorted(state.system.items(),
                                                   key=lambda kv: kv[0].key())
             if not phi.is_zero()]
    acc = {}
    for la, ca in items:
        for lb, cb in items:
            m = concat(la, lb)
            if m is None or m.degree == 0:
                continue
            prod = _reference_compose(ca, cb)
            if not prod.is_zero():
                acc[m] = acc[m].add(prod) if m in acc else prod
    out = {}
    for m in sorted(acc, key=Monomial.key):
        mats = acc[m].mats
        if all(t.is_zero() for t in mats):
            continue
        out[format_monomial(m)] = [
            [[format_element(mat.get(r, c)) if mat.get(r, c) else "0"
              for c in range(mat.ncols)] for r in range(mat.nrows)]
            for mat in mats]
    return out


def _reference_intertwines(c1, c2, q_entries):
    bundle = c1.bundle
    algebra = c1.algebra
    pres = bundle.pres

    def qmat(label, m):
        if isinstance(label, Monomial) and label.degree == 0:
            rank = bundle.res(label.i).rank(m)
            return Mat(rank, rank, {(t, t): pres.one() for t in range(rank)})
        li, lj = label_type(label)
        return Mat(bundle.res(lj).rank(m), bundle.res(li).rank(m),
                   q_entries.get((algebra.index[label], m), {}))

    sys1 = c1.system()
    sys2 = c2.system()
    for zidx, zlabel in enumerate(algebra.basis):
        zi, zj = label_type(zlabel)
        for m in range(bundle.mmax):
            total = Mat(bundle.res(zj).rank(m + 1), bundle.res(zi).rank(m))
            for aidx, alabel in enumerate(algebra.basis):
                for bidx, blabel in enumerate(algebra.basis):
                    coeff = algebra.product(aidx, bidx).get(zidx)
                    if not coeff:
                        continue
                    phi1 = sys1.get(blabel)
                    if phi1 is not None:
                        total = total.add(
                            phi1.mats[m].mul(qmat(alabel, m)).scale(coeff))
                    phi2 = sys2.get(alabel)
                    if phi2 is not None:
                        total = total.add(
                            qmat(blabel, m + 1).mul(phi2.mats[m]).scale(-coeff))
            if not total.is_zero():
                return False
    return True


# -- helpers --------------------------------------------------------------------


def _ordered(phi):
    """A cochain with the order of its entries and of their terms."""
    return (phi.degree, phi.type,
            [[(rc, list(v.terms.items())) for rc, v in mat.entries.items()]
             for mat in phi.mats])


def _random_cochain(bundle, degree, i, j, rng, max_degree=2):
    pres = bundle.pres
    words = pres.normal_words(max_degree)
    mats = []
    for m in range(bundle.mmax - degree + 1):
        nrows, ncols = bundle.res(j).rank(m + degree), bundle.res(i).rank(m)
        mats.append(Mat(nrows, ncols, {
            (r, c): pres.element({rng.choice(words): rng.randint(1, 2),
                                  rng.choice(words): rng.randint(-2, -1)})
            for r in range(nrows) for c in range(ncols) if rng.random() < 0.7}))
    return Cochain(bundle, degree, i, j, mats)


@pytest.fixture(scope="module")
def weyl_states(weyl):
    state = advance_order(init_order2(weyl.preset_basis, RunOptions()))
    return [state, advance_order(state)]


# -- the tests ------------------------------------------------------------------


def test_curvature_and_raw_square_match_the_reference_loops(weyl, weyl_states):
    obstructed = 0
    for state in weyl_states:
        ring = build_tagged_truncation(state.table, state.series, state.order + 1)
        for algebra in (state.algebra, ring):
            got = curvature(algebra, state.system)
            want = _reference_curvature(algebra, state.system, weyl.bundle)
            assert list(got) == list(want)
            assert [_ordered(phi) for phi in got.values()] == [
                _ordered(phi) for phi in want.values()]
            obstructed += len(got)
        raw = _raw_products(state.system)
        assert raw and json.dumps(raw) == json.dumps(_reference_raw_products(state))
    assert obstructed


def test_intertwiner_check_matches_the_reference_loop(weyl, weyl_states):
    bundle = weyl.bundle
    rng = random.Random(3)
    for state in weyl_states:
        c1 = LiftedComplex(state.algebra, bundle, state.system)
        algebra = state.algebra
        top = [label for label in algebra.basis if label.degree == state.order - 1]
        # q on the top degree only: alpha2 = alpha1 + d(q) there is intertwined
        q = {label: _random_cochain(bundle, 0, *label_type(label), rng)
             for label in rng.sample(top, 3)}
        shifted = dict(c1.system())
        for label, q_label in q.items():
            shifted[label] = shifted.get(
                label, bundle.zero_cochain(1, *label_type(label))).add(
                    yoneda_differential(q_label))
        c2 = LiftedComplex(algebra, bundle, shifted)
        q_entries = {(algebra.index[label], m): mat.entries
                     for label, q_label in q.items()
                     for m, mat in enumerate(q_label.mats)}
        lower = {(algebra.index[label], m): mat.entries
                 for label in rng.sample([lab for lab in algebra.basis
                                          if 0 < lab.degree < state.order - 1], 3)
                 for m, mat in enumerate(_random_cochain(
                     bundle, 0, *label_type(label), rng).mats)}
        cases = [(c1, c1, {}, True), (c1, c2, q_entries, True),
                 (c2, c1, q_entries, False), (c1, c2, {}, False),
                 (c1, c1, q_entries, False), (c1, c2, {**q_entries, **lower}, None)]
        for a, b, entries, want in cases:
            got = _intertwines(a, b, entries)
            assert got == _reference_intertwines(a, b, entries)
            assert want is None or got == want


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_yoneda_products_match_the_reference_loops(problem, request):
    bundle = request.getfixturevalue(problem).bundle
    rng = random.Random(7)
    types = [(i, j) for i in range(1, bundle.p + 1) for j in range(1, bundle.p + 1)]
    for _ in range(12):
        i, t = rng.choice(types)
        j = rng.randrange(1, bundle.p + 1)
        degrees = [rng.randrange(3) for _ in range(3)]
        a = _random_cochain(bundle, degrees[0], i, t, rng)
        b = _random_cochain(bundle, degrees[1], t, j, rng)
        c = _random_cochain(bundle, degrees[2], j, i, rng)
        for phi in (a, b, c):
            assert _ordered(yoneda_differential(phi)) == _ordered(
                _reference_differential(phi))
        ab = compose_cochains(a, b)
        assert (ab.degree, ab.type) == (a.degree + b.degree, (i, j))
        if a.degree == b.degree == 1:
            assert _ordered(ab) == _ordered(_reference_compose(a, b))
        # associative, and d is a graded derivation of the product
        assert compose_cochains(ab, c) == compose_cochains(a, compose_cochains(b, c))
        sign = -1 if b.degree % 2 else 1
        assert yoneda_differential(ab) == compose_cochains(
            yoneda_differential(a), b).scale(sign).add(
                compose_cochains(a, yoneda_differential(b)))


def test_product_sum_weighs_each_product_by_its_structure_constant(weyl):
    bundle = weyl.bundle
    rng = random.Random(1)
    left = {k: _random_cochain(bundle, 1, 1, 2, rng) for k in "ab"}
    right = {k: _random_cochain(bundle, 1, 2, 3, rng) for k in "cd"}
    right["e"] = _random_cochain(bundle, 1, 1, 3, rng)  # composes with nothing

    def product(x, y):
        return {"ac": {"z": 2, "w": 1}, "bd": {"z": -1}, "bc": {"w": -1}}.get(x + y, {})

    out = product_sum(left, right, product)
    ac, bd, bc = (compose_cochains(left[x], right[y]) for x, y in ("ac", "bd", "bc"))
    assert out["z"] == ac.scale(2).add(bd.scale(-1))
    assert out["w"] == ac.add(bc.scale(-1))
    assert product_sum(left, right, lambda x, y: {"z": 1, "w": -1} if x + y == "ac"
                       else {}) == {"z": ac, "w": ac.scale(-1)}
    cancel = {"a": left["a"], "b": left["a"]}
    assert product_sum(cancel, right, lambda x, y: {"z": 1 if x == "a" else -1}
                       if y == "c" else {}) == {}
