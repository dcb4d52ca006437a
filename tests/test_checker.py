import random

import pytest

import ncdef.checker as checker_module
from ncdef.algebra import AlgebraPresentation
from ncdef.checker import (LiftedComplex, curvature, equivalence_check,
                           test_algebra_deformation, verify_lifted_complex)
from ncdef.errors import NotACocycle
from ncdef.massey import advance_order, init_order2
from ncdef.matrix_ring import (Monomial, build_quotient, format_monomial,
                               parse_monomial)
from ncdef.presets import RunOptions
from ncdef.yoneda import (Cochain, ExtBasis, ExtComputer, FreeResolution, Mat,
                          ResolutionBundle, yoneda_differential)


def test_trivial_lifting_verifies(weyl):
    table = weyl.preset_basis.table()
    algebra = build_quotient(table, [], 3)
    lifted = LiftedComplex(algebra, weyl.bundle, {})
    ok, failure = verify_lifted_complex(lifted)
    assert ok and failure is None


def test_versal_family_verifies_over_h3(weyl_state, weyl):
    lifted = LiftedComplex(weyl_state.algebra, weyl.bundle, weyl_state.system)
    ok, failure = verify_lifted_complex(lifted)
    assert ok


def test_sign_flip_fails_with_location(weyl_state, weyl):
    system = dict(weyl_state.system)
    x12 = parse_monomial("x12", 4)
    system[x12] = system[x12].scale(-1)
    lifted = LiftedComplex(weyl_state.algebra, weyl.bundle, system)
    ok, failure = verify_lifted_complex(lifted)
    assert not ok
    label, m = failure
    assert label.degree == 2 and m == 0
    assert format_monomial(label) in {"x12*x24", "x31*x12"}


def test_hull_states_verify_at_every_order(poly1_state, poly1):
    lifted = LiftedComplex(poly1_state.algebra, poly1.bundle, poly1_state.system)
    ok, _ = verify_lifted_complex(lifted)
    assert ok


def test_truncation_functoriality(weyl_state, weyl):
    # dropping the top-degree monomials restricts the family to H_2 and the
    # restriction still verifies: the versal family lifts the smaller one
    table = weyl_state.table
    h2 = build_quotient(table, [], 2)
    system = {label: phi for label, phi in weyl_state.system.items()
              if label in h2.index}
    ok, _ = verify_lifted_complex(LiftedComplex(h2, weyl.bundle, system))
    assert ok


def test_test_algebra_deformation(weyl):
    basis = weyl.preset_basis
    lifted = test_algebra_deformation(basis.ext1_rep(1, 2, 1), weyl.bundle)
    ok, _ = verify_lifted_complex(lifted)
    assert ok
    assert lifted.algebra.dim == 5  # four points plus one arrow


def test_test_algebra_rejects_non_cocycle(weyl):
    pres = weyl.pres
    bad = Cochain(weyl.bundle, 1, 1, 2,
                  [Mat(2, 1, {(1, 0): pres.parse("1 + x")}),
                   Mat(1, 2, {(0, 0): pres.one()})])
    with pytest.raises(NotACocycle):
        test_algebra_deformation(bad, weyl.bundle)


def test_zero_cocycle_gives_trivial_lifting(weyl):
    lifted = test_algebra_deformation(weyl.bundle.zero_cochain(1, 1, 2),
                                      weyl.bundle)
    assert all(phi.is_zero() for label, phi in lifted.cochains.items()
               if isinstance(label, Monomial) and label.degree > 0)


def test_equivalence_reflexive(weyl):
    lifted = test_algebra_deformation(weyl.preset_basis.ext1_rep(1, 2, 1),
                                      weyl.bundle)
    assert equivalence_check(lifted, lifted, RunOptions().ladder)


def _coboundary_pair(bundle):
    """Test-algebra deformations by a coboundary d(tau0) and by zero."""
    pres = bundle.pres
    rng = random.Random(17)
    words = pres.normal_words(1)
    mats = []
    for m in range(bundle.mmax + 1):
        nrows = bundle.res(2).rank(m)
        ncols = bundle.res(1).rank(m)
        entries = {(r, c): pres.element(
            {words[rng.randrange(len(words))]: rng.randint(-2, 2)})
            for r in range(nrows) for c in range(ncols)}
        mats.append(Mat(nrows, ncols, entries))
    tau = yoneda_differential(Cochain(bundle, 0, 1, 2, mats))
    assert not tau.is_zero()
    return (test_algebra_deformation(tau, bundle),
            test_algebra_deformation(bundle.zero_cochain(1, 1, 2), bundle))


def test_coboundary_deformation_is_trivial(weyl):
    deformed, trivial = _coboundary_pair(weyl.bundle)
    assert equivalence_check(deformed, trivial, RunOptions().ladder)
    # symmetry on this pair
    assert equivalence_check(trivial, deformed, RunOptions().ladder)


def _free2_basis():
    pres = AlgebraPresentation(["u", "v"], [])
    res = FreeResolution(pres, ["u", "v"], [1, 2], [[["u"], ["v"]]])
    bundle = ResolutionBundle(pres, [res])
    computer = ExtComputer(bundle, RunOptions().ladder)
    basis = ExtBasis.computed(computer)
    return bundle, basis


def test_independent_extensions_are_inequivalent():
    bundle, basis = _free2_basis()
    rep_u, rep_v = basis.ext1[(1, 1)]
    d_u = test_algebra_deformation(rep_u, bundle)
    d_v = test_algebra_deformation(rep_v, bundle)
    assert not equivalence_check(d_u, d_v, RunOptions(max_bound=6).ladder)
    assert equivalence_check(d_u, d_u, RunOptions().ladder)


def test_curvature_matches_defining_system_invariant(weyl):
    # the engine state reinterpreted as a lifted complex has zero curvature
    state = init_order2(weyl.preset_basis, RunOptions())
    state = advance_order(state)
    curv = curvature(state.algebra, state.system)
    assert curv == {}


def test_intertwiner_check_rejects_zero_and_accepts_the_solved_q(weyl, monkeypatch):
    deformed, trivial = _coboundary_pair(weyl.bundle)
    # q = 0 off the idempotents leaves alpha1 - alpha2 = d(tau0) != 0
    assert not checker_module._intertwines(deformed, trivial, {})
    checks = []

    def recording(c1, c2, q_entries):
        ok = intertwines(c1, c2, q_entries)
        checks.append((q_entries, ok))
        return ok

    intertwines = checker_module._intertwines
    monkeypatch.setattr(checker_module, "_intertwines", recording)
    assert equivalence_check(deformed, trivial, RunOptions().ladder)
    q_entries, ok = checks[-1]
    assert ok and any(q_entries.values())
    assert intertwines(deformed, trivial, q_entries)
    assert not intertwines(trivial, deformed, q_entries)
