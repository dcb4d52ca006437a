"""The order step's tag collapse and residual against the general construction.

The reference below is the general quotient the order step used to run: it
splits each vector by type, closes the span under two-sided multiplication
by the radical, and returns the expansion of every eliminated label; the
residual was then R's curvature pushed through those expansions by hand.
The order step now substitutes one echelon of the collapse vectors into R's
structure constants and takes the residual as the curvature over H.  On
every order step of three problems both give the same H, the same class
of every monomial below the cutoff, and the same residual.
"""

from fractions import Fraction

import pytest

import ncdef.massey as massey
from ncdef.checker import curvature
from ncdef.linalg import Echelon
from ncdef.matrix_ring import (FiniteDimPointedAlgebra, Monomial, RelTag, label_type,
                               monomials_of_degree)
from ncdef.presets import RunOptions
from ncdef.yoneda import yoneda_differential


def _mult_coords(algebra, u, v):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            for c, cc in algebra.product(a, b).items():
                s = out.get(c, Fraction(0)) + ca * cb * cc
                if s:
                    out[c] = s
                else:
                    out.pop(c, None)
    return out


def _type_split(basis, vec):
    parts = {}
    for k, c in vec.items():
        parts.setdefault(label_type(basis[k]), {})[k] = c
    return [parts[t] for t in sorted(parts)]


def _reference_quotient(algebra, vectors):
    """Quotient by the two-sided ideal of the vectors.

    Returns (quotient, eliminated, push): push sends index coordinates over
    the algebra to the quotient.
    """
    seeds = []
    for v in vectors:
        if v:
            seeds.extend(_type_split(algebra.basis, v))

    def priority(col):
        label = algebra.basis[col]
        if isinstance(label, RelTag):
            return (1, 0, (0,), (label.i, label.j, label.l))
        return (0, -label.degree, label.key(), (0, 0, 0))

    ech = Echelon(priority=priority)
    members = []
    for v in seeds:
        if ech.add(dict(v)) is not None:
            members.append(v)
    rad = [k for k, b in enumerate(algebra.basis)
           if not (isinstance(b, Monomial) and b.degree == 0)]
    frontier = members
    while frontier:
        nxt = []
        for v in frontier:
            for r in rad:
                for left in (True, False):
                    ru = {r: Fraction(1)}
                    w = _mult_coords(algebra, ru, v) if left else _mult_coords(algebra, v, ru)
                    if w and ech.add(dict(w)) is not None:
                        nxt.append(w)
        frontier = nxt
    pivots = ech.pivots()
    keep = [k for k in range(algebra.dim) if k not in pivots]
    reindex = {k: n for n, k in enumerate(keep)}

    def push(coords):
        red = ech.reduce(coords)
        return {reindex[k]: c for k, c in red.items()}

    eliminated = {algebra.basis[k]: push({k: Fraction(1)}) for k in sorted(pivots)}
    products = {}
    for (a, b), coords in algebra.products.items():
        if a in pivots or b in pivots:
            continue
        pushed = push(dict(coords))
        if pushed:
            products[(reindex[a], reindex[b])] = pushed
    quot = FiniteDimPointedAlgebra(algebra.p, [algebra.basis[k] for k in keep],
                                   products, algebra.cutoff)
    return quot, eliminated, push


def _reference_residual(ys, ws, H, eliminated, n):
    """R's curvature components pushed through the eliminated expansions."""
    residual = {}
    curv_R = dict(ys)
    curv_R.update(ws)
    for label, coords in eliminated.items():
        comp = curv_R.get(label)
        if comp is None or comp.is_zero():
            continue
        for idx, coeff in coords.items():
            zlabel = H.basis[idx]
            acc = residual.get(zlabel)
            residual[zlabel] = comp.scale(coeff) if acc is None \
                else acc.add(comp.scale(coeff))
    for x in H.basis_of_degree(n):
        comp = curv_R.get(x)
        if comp is not None:
            acc = residual.get(x)
            residual[x] = comp if acc is None else acc.add(comp)
    return residual


def _pushed(curv_R, H, eliminated):
    """Curvature components over R sent to H: the linear push of any system."""
    out = {}
    for label, comp in curv_R.items():
        coords = eliminated.get(label, {H.index.get(label): Fraction(1)})
        for idx, coeff in coords.items():
            zlabel = H.basis[idx]
            acc = out.get(zlabel)
            out[zlabel] = comp.scale(coeff) if acc is None \
                else acc.add(comp.scale(coeff))
    return {label: comp for label, comp in out.items() if not comp.is_zero()}


# only the flagship bends: the point of the line has no nonzero 2-cochains,
# and the cup product of the commutative point's representatives is
# antisymmetric, so rescaling its tangent directions keeps the family flat
@pytest.mark.parametrize("problem, max_order, bends", [
    ("weyl", 7, True), ("poly1", 6, False), ("poly3", 4, False)])
def test_collapse_and_residual_match_the_general_quotient(problem, max_order, bends,
                                                          request, monkeypatch):
    if problem == "poly3":
        basis = request.getfixturevalue("poly3_computed_basis")
    else:
        basis = request.getfixturevalue(problem).preset_basis
    seen = []
    order_obstructions = massey.order_obstructions
    quotient_by_vectors = massey.quotient_by_vectors

    def obstructions_spy(state):
        out = order_obstructions(state)
        seen.append(out)
        return out

    def quotient_spy(R, vectors):
        H = quotient_by_vectors(R, vectors)
        seen.append((R, vectors, H))
        return H

    monkeypatch.setattr(massey, "order_obstructions", obstructions_spy)
    monkeypatch.setattr(massey, "quotient_by_vectors", quotient_spy)
    state = massey.init_order2(basis, RunOptions(max_order=max_order,
                                                 stop_on_stabilized=False))
    while state.order <= max_order:
        n = state.order
        nxt = massey.advance_order(state)
        (R, ys, ws), (R_collapsed, vectors, H) = seen
        seen.clear()
        assert R_collapsed is R and nxt.algebra is H
        ref, eliminated, push = _reference_quotient(R, vectors)
        assert H.basis == ref.basis
        assert H.products == ref.products
        for m in (m for d in range(R.cutoff) for m in monomials_of_degree(state.table, d)):
            assert H.expansion(m) == push(R.expansion(m))
        want = {label: comp for label, comp in
                _reference_residual(ys, ws, H, eliminated, n).items()
                if not comp.is_zero()}
        assert curvature(H, state.system) == want
        assert all(label.degree == n for label in want)
        # the corrections are the new system entries: d(alpha) = -residual
        assert set(nxt.system) - set(state.system) == set(want)
        assert all(yoneda_differential(nxt.system[x]).scale(-1) == want[x] for x in want)
        # the shipped steps leave no residual, so also push the curvature of
        # a system that is not flat: each tangent direction rescaled apart
        bent = dict(state.system)
        for k, x in enumerate(sorted(x for x in bent if x.degree == 1)):
            bent[x] = bent[x].scale(k + 2)
        pushed = _pushed(curvature(R, bent), H, eliminated)
        assert bool(pushed) == bends
        assert curvature(H, bent) == pushed
        state = nxt
    assert state.order == max_order + 1
