"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from ncdef.checker import LiftedComplex, curvature, verify_lifted_complex
from ncdef.massey import (advance_order, compute_hull, immediate_massey,
                          init_order2, order_obstructions)
from ncdef.matrix_ring import (MatricPoly, RelTag, format_monomial, format_poly,
                               format_tag, parse_monomial)
from ncdef.presets import RunOptions
from ncdef.algebra import normal_form
from ncdef.yoneda import (Cochain, ExtBasis, ExtComputer, Mat, is_cocycle,
                          project_ext2, yoneda_differential)

from rescaling import match_up_to_rescaling

EXT1_PAIRS = {(1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)}
EXT2_PAIRS = {(1, 4), (2, 3), (3, 2), (4, 1)}

KNOWN_PRODUCTS = {
    "x12*x24": ("y14", Fraction(-1)),
    "x13*x34": ("y14", Fraction(1)),
    "x21*x13": ("y23", Fraction(-1)),
    "x24*x43": ("y23", Fraction(1)),
    "x31*x12": ("y32", Fraction(1)),
    "x34*x42": ("y32", Fraction(-1)),
    "x42*x21": ("y41", Fraction(1)),
    "x43*x31": ("y41", Fraction(-1)),
}

KNOWN_RELATIONS = {
    "y14": "x13*x34 - x12*x24",
    "y23": "x24*x43 - x21*x13",
    "y32": "x31*x12 - x34*x42",
    "y41": "x42*x21 - x43*x31",
}


def _verdict(n, detail):
    print("\nACCEPTANCE %d: PASS  (%s)" % (n, detail))


def test_criterion_1_ext_tables(weyl):
    started = time.monotonic()
    computer = ExtComputer(weyl.bundle, RunOptions(degree_bound=6).ladder)
    for i in range(1, 5):
        for j in range(1, 5):
            want1 = 1 if (i, j) in EXT1_PAIRS else 0
            want2 = 1 if (i, j) in EXT2_PAIRS else 0
            assert computer.ext_dimension(i, j, 1) == want1
            assert computer.ext_dimension(i, j, 2) == want2
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _verdict(1, "Ext tables exact at degree bound 6 in %.2fs" % elapsed)


def test_criterion_2_order2_products(weyl, weyl_computer, weyl_computed_basis):
    # hand-picked representatives: the eight signed values, all others zero
    state = init_order2(weyl.preset_basis, RunOptions())
    _, ys, _ = order_obstructions(state)
    assert len(ys) == 16
    for x, y in ys.items():
        name = format_monomial(x)
        ((coeffs, _),) = project_ext2([y], weyl.preset_basis.ext2[x.type],
                                      RunOptions().ladder) \
            if weyl.preset_basis.ext2[x.type] else [([], None)]
        if name in KNOWN_PRODUCTS:
            assert coeffs == [KNOWN_PRODUCTS[name][1]]
        else:
            assert y.is_zero()
    # engine-computed representatives: relations agree after diagonal rescaling
    preset_state = compute_hull(weyl.preset_basis, RunOptions())
    computed_state = compute_hull(weyl_computed_basis, RunOptions())
    lam_mu = match_up_to_rescaling(preset_state.relations(),
                                   computed_state.relations(),
                                   weyl.preset_basis.table().arrows)
    assert lam_mu is not None
    _verdict(2, "eight signed products exact; computed-basis relations match "
                "after rescaling")


def test_rescaling_match_divides_exactly():
    # ratios of integral coefficients must be Fractions: int / int is a float
    x, y = parse_monomial("x12*x24", 4), parse_monomial("x13*x34", 4)
    tag = RelTag(1, 4, 1)
    rels_a = {tag: MatricPoly((1, 4), {x: 2, y: 3})}
    rels_b = {tag: MatricPoly((1, 4), {x: 1, y: 7})}
    lam, mu = match_up_to_rescaling(rels_a, rels_b, [(1, 2, 1), (2, 4, 1),
                                                     (1, 3, 1), (3, 4, 1)])
    assert all(type(c) in (int, Fraction) for c in [*lam.values(), *mu.values()])
    assert mu[tag] * lam[(1, 3, 1)] * lam[(3, 4, 1)] * 7 == 3


def test_criterion_3_hull(weyl):
    started = time.monotonic()
    state = compute_hull(weyl.preset_basis, RunOptions(max_order=5))
    elapsed = time.monotonic() - started
    assert state.stabilized
    assert state.max_relation_degree() == 2
    rels = {format_tag(t): format_poly(f) for t, f in state.relations().items()}
    assert rels == KNOWN_RELATIONS
    cert = state.certificate
    assert cert["reduces_to_zero"] and cert["complete"]
    # the raw square decomposition is supported on the relation monomials
    assert set(cert["raw_square_terms"]) == set(KNOWN_PRODUCTS)
    assert elapsed < 60.0
    _verdict(3, "hull = T1 modulo the four binomial relations, certified "
                "d.d = 0, in %.2fs" % elapsed)


def test_criterion_4_unobstructed(poly1):
    started = time.monotonic()
    computer = ExtComputer(poly1.bundle, RunOptions().ladder)
    assert computer.ext_dimension(1, 1, 1) == 1
    assert computer.ext_dimension(1, 1, 2) == 0
    state = compute_hull(poly1.preset_basis,
                         RunOptions(max_order=6, stop_on_stabilized=False))
    assert state.relations() == {}
    assert state.stabilized
    for order in range(2, 7):
        assert all(v == {} for v in state.products_log[order].values())
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _verdict(4, "poly1-point: Ext^1 = 1, Ext^2 = 0, no relations through "
                "order 6, in %.2fs" % elapsed)


def _random_degree0(bundle, rng, i, j, max_degree=2):
    pres = bundle.pres
    words = pres.normal_words(max_degree)
    mats = []
    for m in range(bundle.mmax + 1):
        nrows = bundle.res(j).rank(m)
        ncols = bundle.res(i).rank(m)
        entries = {(r, c): pres.element(
            {words[rng.randrange(len(words))]: rng.randint(-2, 2)})
            for r in range(nrows) for c in range(ncols)}
        mats.append(Mat(nrows, ncols, entries))
    return Cochain(bundle, 0, i, j, mats)


def test_criterion_5_property_suites(weyl, weyl_state, poly1_state,
                                     weyl_computed_basis):
    bundle = weyl.bundle
    rng = random.Random(99)

    # (a) d.d = 0 on >= 50 random cochains
    pairs = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for _ in range(50):
        i, j = pairs[rng.randrange(len(pairs))]
        phi = _random_degree0(bundle, rng, i, j)
        assert yoneda_differential(yoneda_differential(phi)).is_zero()

    # (b) every emitted obstruction cochain is a cocycle
    for source in (init_order2(weyl.preset_basis, RunOptions()), weyl_state):
        _, ys, ws = order_obstructions(source)
        for y in list(ys.values()) + list(ws.values()):
            assert is_cocycle(y)

    # (c) every correction cochain re-verifies its defining equation
    words = bundle.pres.normal_words(1)
    mats = []
    for m in range(bundle.mmax + 1):
        nrows = bundle.res(2).rank(m)
        ncols = bundle.res(1).rank(m)
        entries = {(r, c): bundle.pres.element(
            {words[rng.randrange(len(words))]: rng.randint(1, 2)})
            for r in range(nrows) for c in range(ncols)}
        mats.append(Mat(nrows, ncols, entries))
    shift = yoneda_differential(Cochain(bundle, 0, 1, 2, mats))
    ext1 = dict(weyl.preset_basis.ext1)
    ext1[(1, 2)] = [weyl.preset_basis.ext1_rep(1, 2, 1).add(shift)]
    perturbed = ExtBasis(bundle, ext1, dict(weyl.preset_basis.ext2), "test")
    pstart = init_order2(perturbed, RunOptions())
    pstate = advance_order(pstart)
    # the corrections are the new system entries; each kills the residual of
    # the old system over the new hull
    residual = curvature(pstate.algebra, pstart.system)
    assert residual and set(pstate.system) - set(pstart.system) == set(residual)
    for x, target in residual.items():
        assert yoneda_differential(pstate.system[x]).add(target).is_zero()

    # (d) flatness of every defining system at every order of every run
    for st in (weyl_state, poly1_state, pstate):
        ok, failure = verify_lifted_complex(
            LiftedComplex(st.algebra, st.bundle, st.system))
        assert ok, failure

    # (e) the checker independently verifies the final versal family
    ok, _ = verify_lifted_complex(
        LiftedComplex(weyl_state.algebra, bundle, weyl_state.system))
    assert ok

    # (f) determinism: two full runs byte-identical
    from ncdef.report import build_report, canonical_json, ext_tables
    blobs = []
    for _ in range(2):
        computer = ExtComputer(bundle, RunOptions().ladder)
        st = compute_hull(weyl.preset_basis, RunOptions())
        report = build_report(weyl, st, ext_tables(computer, 4),
                              {"verified": True, "orders_verified": [2],
                               "basis_source": "preset"})
        blobs.append(canonical_json(report))
    assert blobs[0] == blobs[1]

    # (g) cup-product bilinearity on random scalar multiples
    basis = weyl.preset_basis
    x = parse_monomial("x12*x24", 4)
    a, b = basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1)
    for _ in range(5):
        c1 = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        c2 = Fraction(rng.randint(-6, -1), rng.randint(1, 4))
        val = immediate_massey(x, {(1, 2, 1): a.scale(c1),
                                   (2, 4, 1): b.scale(c2)},
                               basis, RunOptions())
        assert val.coefficients == {RelTag(1, 4, 1): -c1 * c2}
        summed = immediate_massey(x, {(1, 2, 1): a.scale(c1).add(a.scale(c2)),
                                      (2, 4, 1): b}, basis, RunOptions())
        assert summed.coefficients.get(RelTag(1, 4, 1), Fraction(0)) == -(c1 + c2)

    # (h) projecting a basis cocycle returns the unit vector
    for bset in (weyl.preset_basis, weyl_computed_basis):
        for (i, j), reps in sorted(bset.ext2.items()):
            for l, rep in enumerate(reps):
                ((coeffs, _),) = project_ext2([rep], reps, RunOptions().ladder)
                assert coeffs == [Fraction(1) if k == l else Fraction(0)
                                  for k in range(len(reps))]

    _verdict(5, "property suites (a)-(h) all hold")


def test_criterion_6_rewriting_and_resolutions(weyl):
    started = time.monotonic()
    pres = weyl.pres
    checked = 0
    for a in pres.generators:
        for b in pres.generators:
            for c in pres.generators:
                if (a, b) not in pres.rules or (b, c) not in pres.rules:
                    continue
                left = pres.zero()
                for rw, rc in pres.rules[(a, b)]:
                    left = left + normal_form(rw + (c,), pres).scale(rc)
                right = pres.zero()
                for rw, rc in pres.rules[(b, c)]:
                    right = right + normal_form((a,) + rw, pres).scale(rc)
                assert left == right
                checked += 1
    assert checked > 0
    for res in weyl.bundle.resolutions.values():
        for m in range(len(res.diffs) - 1):
            assert res.diffs[m + 1].mul(res.diffs[m]).is_zero()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _verdict(6, "%d overlap ambiguities confluent, differentials compose to "
                "zero, in %.3fs" % (checked, elapsed))
