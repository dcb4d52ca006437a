import random
from fractions import Fraction

import pytest

from ncdef.algebra import AlgebraPresentation
from ncdef.checker import curvature
from ncdef.massey import (advance_order, check_stabilized, compute_hull,
                          immediate_massey, init_order2, order_obstructions)
from ncdef.matrix_ring import (MatricPoly, Monomial, RelTag, format_monomial,
                               format_poly, format_tag, monomials_of_degree,
                               parse_monomial)
from ncdef.presets import RunOptions
from ncdef.yoneda import (Cochain, ExtBasis, ExtComputer, FreeResolution, Mat,
                          ResolutionBundle, is_cocycle, yoneda_differential)

KNOWN_RELATIONS = {
    "y14": "x13*x34 - x12*x24",
    "y23": "x24*x43 - x21*x13",
    "y32": "x31*x12 - x34*x42",
    "y41": "x42*x21 - x43*x31",
}

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


def test_init_order2(weyl):
    state = init_order2(weyl.preset_basis, RunOptions())
    assert state.order == 2
    assert len(state.system) == 4 + 8
    assert len(state.algebra.basis_of_degree(1)) == 8
    assert all(f.is_zero() for f in state.series.values())


def test_obstruction_cocycles_order2(weyl):
    state = init_order2(weyl.preset_basis, RunOptions())
    _, ys, _ = order_obstructions(state)
    for name, (tag, value) in KNOWN_PRODUCTS.items():
        y = ys[parse_monomial(name, 4)]
        assert is_cocycle(y)
        assert y.mats[0].get(0, 0) == weyl.pres.parse(str(value))
    assert ys[parse_monomial("x12*x21", 4)].is_zero()


def test_order2_products_match_known_values(weyl):
    state = init_order2(weyl.preset_basis, RunOptions())
    products = advance_order(state).products_log[2]
    assert len(products) == 16
    for x, val in products.items():
        name = format_monomial(x)
        if name in KNOWN_PRODUCTS:
            tag_name, value = KNOWN_PRODUCTS[name]
            assert len(val) == 1
            (tag, coeff), = val.items()
            assert format_tag(tag) == tag_name and coeff == value
        else:
            assert val == {}


def test_advance_produces_known_relations(weyl_state):
    rels = {format_tag(tag): format_poly(f)
            for tag, f in weyl_state.relations().items()}
    assert rels == KNOWN_RELATIONS


def test_advance_basis_and_corrections(weyl_state):
    names = {format_monomial(m) for m in weyl_state.algebra.basis_of_degree(2)}
    assert len(names) == 12
    assert names.isdisjoint({"x13*x34", "x24*x43", "x31*x12", "x42*x21"})
    # the zero correction choice works at order 2: the step adds no entry
    assert not any(x.degree == 2 for x in weyl_state.system)


def test_order3_products_all_zero(weyl_state):
    state4 = advance_order(weyl_state)
    products = state4.products_log[3]
    assert len(products) == 16
    assert all(v == {} for v in products.values())
    # regression: advancing does not change the relation series
    assert {format_tag(t): format_poly(f) for t, f in state4.relations().items()} \
        == KNOWN_RELATIONS


def test_stabilization_certificate(weyl_state):
    ok, cert = check_stabilized(weyl_state)
    assert ok and cert["reduces_to_zero"] and cert["complete"]
    assert cert["verified_cutoff"] == 4
    # the raw square decomposes over exactly the eight product monomials
    assert set(cert["raw_square_terms"]) == set(KNOWN_PRODUCTS)


def test_stabilization_detects_corrupted_relation(weyl_state):
    tag = RelTag(1, 4, 1)
    bad = dict(weyl_state.series)
    flipped = {m: -c if format_monomial(m) == "x13*x34" else c
               for m, c in bad[tag].terms.items()}
    bad[tag] = MatricPoly((1, 4), flipped)
    corrupted = weyl_state._replace(series=bad)
    ok, cert = check_stabilized(corrupted)
    assert not ok and not cert["reduces_to_zero"]


def test_compute_hull_stabilizes(weyl_state):
    assert weyl_state.stabilized
    assert weyl_state.max_relation_degree() == 2
    assert weyl_state.order == 3


def test_flatness_invariant_every_order(weyl):
    from ncdef.checker import LiftedComplex, verify_lifted_complex
    state = init_order2(weyl.preset_basis, RunOptions())
    for _ in range(2):
        state = advance_order(state)
        ok, failure = verify_lifted_complex(
            LiftedComplex(state.algebra, state.bundle, state.system))
        assert ok, failure


def test_unobstructed_poly1(poly1_state):
    assert poly1_state.stabilized
    assert poly1_state.relations() == {}
    for order in range(2, 7):
        assert order in poly1_state.products_log
        assert all(v == {} for v in poly1_state.products_log[order].values())
        assert len(poly1_state.algebra.basis_of_degree(order - 1)) == 1


def _free2_setup():
    """k<u,v> with the point module: two tangent directions, no obstructions."""
    pres = AlgebraPresentation(["u", "v"], [])
    res = FreeResolution(pres, ["u", "v"], [1, 2], [[["u"], ["v"]]])
    bundle = ResolutionBundle(pres, [res])
    computer = ExtComputer(bundle, RunOptions().ladder)
    basis = ExtBasis.computed(computer)
    basis.certify(computer)
    return bundle, computer, basis


def test_free_algebra_unobstructed_hull():
    bundle, computer, basis = _free2_setup()
    assert computer.ext_dimension(1, 1, 1) == 2
    assert computer.ext_dimension(1, 1, 2) == 0
    state = compute_hull(basis, RunOptions(max_order=3, stop_on_stabilized=False))
    assert state.stabilized
    assert state.relations() == {}
    assert len(state.algebra.basis_of_degree(2)) == 4
    assert len(state.algebra.basis_of_degree(3)) == 8


def test_point_module_over_commutative_plane():
    """The point in the affine plane: two tangent directions, one relation,
    and the relation the engine finds is exactly the commutator, so the
    noncommutative hull is the commutative formal power series plane."""
    pres = AlgebraPresentation(["x", "y"], [(("y", "x"), [(("x", "y"), 1)])])
    res = FreeResolution(pres, ["x", "y"], [1, 2, 1],
                         [[["x"], ["y"]], [["y", "-x"]]])
    bundle = ResolutionBundle(pres, [res])
    computer = ExtComputer(bundle, RunOptions().ladder)
    assert computer.ext_dimension(1, 1, 1) == 2
    assert computer.ext_dimension(1, 1, 2) == 1
    basis = ExtBasis.computed(computer)
    basis.certify(computer)
    state = compute_hull(basis, RunOptions(max_order=4, stop_on_stabilized=False))
    assert state.stabilized
    rels = state.relations()
    assert len(rels) == 1
    (f,) = rels.values()
    t1 = Monomial.from_arrows([(1, 1, 1)])
    t2 = Monomial.from_arrows([(1, 1, 2)])
    t12 = Monomial.from_arrows([(1, 1, 1), (1, 1, 2)])
    t21 = Monomial.from_arrows([(1, 1, 2), (1, 1, 1)])
    assert set(f.terms) == {t12, t21}
    assert f.terms[t12] == -f.terms[t21]
    # surviving degree-2 and degree-3 bases are the commutative monomials
    assert len(state.algebra.basis_of_degree(2)) == 3
    assert len(state.algebra.basis_of_degree(3)) == 4
    for prods in (state.products_log[3], state.products_log[4]):
        assert all(v == {} for v in prods.values())


def test_infinite_extensions_raise_not_stabilized():
    # the line module over the plane has infinite-dimensional
    # self-extensions; the truncated count keeps growing and the engine
    # must refuse to certify a number
    from ncdef.errors import NotStabilized
    pres = AlgebraPresentation(["x", "y"], [(("y", "x"), [(("x", "y"), 1)])])
    res = FreeResolution(pres, ["x"], [1, 1], [[["x"]]])
    bundle = ResolutionBundle(pres, [res])
    computer = ExtComputer(bundle, RunOptions().ladder)
    with pytest.raises(NotStabilized):
        computer.ext_dimension(1, 1, 1)


def test_rigid_family():
    # a single module with no self-extensions: the hull is the base field
    from ncdef.algebra import preset_presentation
    pres = preset_presentation("weyl2")
    res = FreeResolution(pres, ["Dx", "Dy"], [1, 2, 1],
                         [[["Dx"], ["Dy"]], [["Dy", "-Dx"]]])
    bundle = ResolutionBundle(pres, [res])
    computer = ExtComputer(bundle, RunOptions().ladder)
    basis = ExtBasis.computed(computer)
    assert computer.ext_dimension(1, 1, 1) == 0
    state = compute_hull(basis, RunOptions(max_order=4))
    assert state.stabilized and state.relations() == {}
    assert state.algebra.dim == 1


def test_coboundary_perturbed_basis_needs_corrections(weyl):
    """A cohomologous choice of representative changes nothing at the level
    of products and relations but forces nonzero correction cochains."""
    bundle = weyl.bundle
    pres = bundle.pres
    rng = random.Random(41)
    words = pres.normal_words(1)
    mats = []
    for m in range(bundle.mmax + 1):
        nrows = bundle.res(2).rank(m)
        ncols = bundle.res(1).rank(m)
        entries = {(r, c): pres.element(
            {words[rng.randrange(len(words))]: rng.randint(1, 2)})
            for r in range(nrows) for c in range(ncols)}
        mats.append(Mat(nrows, ncols, entries))
    shift = yoneda_differential(Cochain(bundle, 0, 1, 2, mats))
    assert not shift.is_zero()
    ext1 = dict(weyl.preset_basis.ext1)
    ext1[(1, 2)] = [weyl.preset_basis.ext1_rep(1, 2, 1).add(shift)]
    perturbed = ExtBasis(bundle, ext1, dict(weyl.preset_basis.ext2), "test")
    start = init_order2(perturbed, RunOptions(max_order=3))
    state = advance_order(start)
    rels = {format_tag(t): format_poly(f) for t, f in state.relations().items()}
    assert rels == KNOWN_RELATIONS
    # the corrections are the new system entries, one per residual component
    residual = curvature(state.algebra, start.system)
    assert residual, "perturbed system should need corrections"
    assert set(state.system) - set(start.system) == set(residual)
    for x, target in residual.items():
        alpha = state.system[x]
        assert not alpha.is_zero()
        # the defining equation re-verifies exactly
        assert yoneda_differential(alpha).add(target).is_zero()


def test_immediate_massey_cup(weyl):
    basis = weyl.preset_basis
    x = parse_monomial("x12*x24", 4)
    cochains = {(1, 2, 1): basis.ext1_rep(1, 2, 1),
                (2, 4, 1): basis.ext1_rep(2, 4, 1)}
    value = immediate_massey(x, cochains, basis, RunOptions())
    assert value.defined
    assert value.coefficients == {RelTag(1, 4, 1): Fraction(-1)}


def test_immediate_massey_zero_input(weyl):
    basis = weyl.preset_basis
    x = parse_monomial("x12*x24", 4)
    cochains = {(1, 2, 1): weyl.bundle.zero_cochain(1, 1, 2),
                (2, 4, 1): basis.ext1_rep(2, 4, 1)}
    value = immediate_massey(x, cochains, basis, RunOptions())
    assert value.defined and value.coefficients == {}


def test_immediate_massey_bilinear(weyl):
    basis = weyl.preset_basis
    x = parse_monomial("x12*x24", 4)
    rng = random.Random(9)
    for _ in range(5):
        c1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        c2 = Fraction(rng.randint(-5, -1), rng.randint(1, 3))
        a = basis.ext1_rep(1, 2, 1)
        b = basis.ext1_rep(2, 4, 1)
        scaled = immediate_massey(x, {(1, 2, 1): a.scale(c1),
                                      (2, 4, 1): b.scale(c2)},
                                  basis, RunOptions())
        assert scaled.coefficients == {RelTag(1, 4, 1): -c1 * c2}
        summed = immediate_massey(x, {(1, 2, 1): a.scale(c1 + c2),
                                      (2, 4, 1): b},
                                  basis, RunOptions())
        assert summed.coefficients.get(RelTag(1, 4, 1), Fraction(0)) == -(c1 + c2)


def test_immediate_massey_degree3_regression(weyl):
    # the order-2 obstruction already blocks every defining system through
    # x12*x24; pinned as a regression of the engine's deterministic search
    basis = weyl.preset_basis
    x = parse_monomial("x12*x24*x43", 4)
    cochains = {(1, 2, 1): basis.ext1_rep(1, 2, 1),
                (2, 4, 1): basis.ext1_rep(2, 4, 1),
                (4, 3, 1): basis.ext1_rep(4, 3, 1)}
    value = immediate_massey(x, cochains, basis, RunOptions(max_bound=6))
    assert not value.defined
    assert format_monomial(value.failed_at) == "x12*x24"


def _immediate_massey_with_basis(x, basis, options):
    cochains = {arrow: basis.ext1_rep(*arrow) for arrow in x.arrows}
    return immediate_massey(x, cochains, basis, options)


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_immediate_massey_agrees_with_order2_products(problem, request):
    # on a degree-2 monomial the immediate product and the hull's order-2
    # product are the same cup product projected onto the same Ext^2 basis
    basis = (request.getfixturevalue(problem).preset_basis
             or request.getfixturevalue("poly3_computed_basis"))
    options = RunOptions()
    products = advance_order(init_order2(basis, options)).products_log[2]
    monomials = monomials_of_degree(basis.table(), 2)
    assert len(monomials) == {"weyl": 16, "poly3": 9}[problem]
    for x in monomials:
        value = _immediate_massey_with_basis(x, basis, options)
        assert value.defined, x
        assert value.coefficients == products[x], x


@pytest.mark.parametrize("problem, name, failed_at", [
    ("weyl", "x12*x21*x13*x34", "x13*x34"),
    ("poly3", "x1_1_1*x1_1_2*x1_1_3", "x1_1_1*x1_1_2"),
])
def test_immediate_massey_failed_at(problem, name, failed_at, request):
    basis = (request.getfixturevalue(problem).preset_basis
             or request.getfixturevalue("poly3_computed_basis"))
    x = parse_monomial(name, basis.bundle.p)
    value = _immediate_massey_with_basis(x, basis, RunOptions())
    assert not value.defined
    assert format_monomial(value.failed_at, basis.table()) == failed_at


def test_determinism_two_runs(weyl):
    from ncdef.report import build_report, canonical_json, ext_tables
    opts = RunOptions()
    runs = []
    for _ in range(2):
        computer = ExtComputer(weyl.bundle, RunOptions().ladder)
        state = compute_hull(weyl.preset_basis, opts)
        tables = ext_tables(computer, 4)
        report = build_report(weyl, state, tables,
                              {"verified": True, "orders_verified": [2],
                               "basis_source": "preset"})
        runs.append(canonical_json(report))
    assert runs[0] == runs[1]
