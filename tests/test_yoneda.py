import random
from fractions import Fraction

import pytest

from ncdef.algebra import preset_presentation
from ncdef.errors import NotACoboundary, ShapeMismatch
from ncdef.yoneda import (Cochain, ExtComputer, FreeResolution, Mat,
                          ResolutionBundle, SparseSystem, bound_ladder,
                          compose_cochains, is_cocycle, project_ext2,
                          solve_coboundary, yoneda_differential)

NONZERO_EXT1 = [(1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]
NONZERO_EXT2 = [(1, 4), (2, 3), (3, 2), (4, 1)]


def test_resolutions_compose_to_zero(weyl, poly1):
    for bundle in (weyl.bundle, poly1.bundle):
        for res in bundle.resolutions.values():
            for m in range(len(res.diffs) - 1):
                assert res.diffs[m + 1].mul(res.diffs[m]).is_zero()


def test_differential_of_zero(weyl):
    z = weyl.bundle.zero_cochain(1, 1, 2)
    assert yoneda_differential(z).is_zero()


def test_preset_representatives_are_cocycles(weyl):
    basis = weyl.preset_basis
    for (i, j) in NONZERO_EXT1:
        assert is_cocycle(basis.ext1_rep(i, j, 1))
    for (i, j) in NONZERO_EXT2:
        assert is_cocycle(basis.ext2_rep(i, j, 1))


def test_identity_degree_zero_cochain_is_cocycle(weyl):
    bundle = weyl.bundle
    mats = []
    pres = bundle.pres
    for m in range(bundle.mmax + 1):
        rank = bundle.res(1).rank(m)
        mats.append(Mat(rank, rank, {(t, t): pres.one() for t in range(rank)}))
    ident = Cochain(bundle, 0, 1, 1, mats)
    assert is_cocycle(ident)


def test_perturbed_representative_is_not_cocycle(weyl):
    bundle = weyl.bundle
    pres = bundle.pres
    rep = weyl.preset_basis.ext1_rep(1, 2, 1)
    bad = Cochain(bundle, 1, 1, 2,
                  [Mat(2, 1, {(1, 0): pres.parse("1 + x")}), rep.mats[1]])
    assert not is_cocycle(bad)


def _random_degree0(bundle, rng, i, j, max_degree=2):
    pres = bundle.pres
    words = pres.normal_words(max_degree)
    mats = []
    for m in range(bundle.mmax + 1):
        nrows = bundle.res(j).rank(m)
        ncols = bundle.res(i).rank(m)
        entries = {}
        for r in range(nrows):
            for c in range(ncols):
                terms = {words[rng.randrange(len(words))]: rng.randint(-2, 2)
                         for _ in range(2)}
                entries[(r, c)] = pres.element(terms)
        mats.append(Mat(nrows, ncols, entries))
    return Cochain(bundle, 0, i, j, mats)


def test_d_squared_zero_on_random_cochains(weyl):
    bundle = weyl.bundle
    rng = random.Random(11)
    pairs = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    count = 0
    while count < 50:
        i, j = pairs[rng.randrange(len(pairs))]
        phi = _random_degree0(bundle, rng, i, j)
        assert yoneda_differential(yoneda_differential(phi)).is_zero()
        count += 1


def test_compose_cochains_cup_values(weyl):
    basis = weyl.preset_basis
    y = compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1))
    assert y.mats[0].get(0, 0) == weyl.pres.parse("-1")
    y = compose_cochains(basis.ext1_rep(1, 3, 1), basis.ext1_rep(3, 4, 1))
    assert y.mats[0].get(0, 0) == weyl.pres.parse("1")
    z = weyl.bundle.zero_cochain(1, 1, 2)
    assert compose_cochains(z, basis.ext1_rep(2, 4, 1)).is_zero()


def test_compose_type_mismatch(weyl):
    basis = weyl.preset_basis
    with pytest.raises(ShapeMismatch):
        compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(1, 3, 1))


def test_ext_dimensions_weyl(weyl_computer):
    for i in range(1, 5):
        for j in range(1, 5):
            want1 = 1 if (i, j) in NONZERO_EXT1 else 0
            want2 = 1 if (i, j) in NONZERO_EXT2 else 0
            assert weyl_computer.ext_dimension(i, j, 1) == want1
            assert weyl_computer.ext_dimension(i, j, 2) == want2


def test_ext_dimension_symmetry(weyl_computer):
    for i in range(1, 5):
        for j in range(1, 5):
            for n in (1, 2):
                assert weyl_computer.ext_dimension(i, j, n) == \
                    weyl_computer.ext_dimension(5 - i, 5 - j, n)


def _weyl1_problem():
    """Two point modules over the one-variable Weyl algebra."""
    pres = preset_presentation("weyl1")
    m = FreeResolution(pres, ["Dx"], [1, 1], [[["Dx"]]], name="M")
    n = FreeResolution(pres, ["x"], [1, 1], [[["x"]]], name="N")
    return ResolutionBundle(pres, [m, n])


def _oracle_weyl1_ext1_dim(bound, slack=2):
    """Truncated-rank computation of dim Ext^1(A/A.Dx, A/A.x) from scratch.

    N = A/A.x has basis Dx^c; x acts by -c Dx^(c-1) and Dx by the shift.
    The Hom complex of the length-one resolution of M = A/A.Dx with
    coefficients in N is N --(left mult by Dx)--> N; the dimension counted
    is cocycles at the bound minus boundaries with slack.
    """
    def dmap(limit):
        # matrix of left multiplication by Dx: Dx^c -> Dx^(c+1)
        rows = {}
        for c in range(limit + 1):
            rows[(c + 1, c)] = Fraction(1)
        return rows

    # boundaries: images of N_{<= bound + slack} inside N_{<= bound}
    img = dmap(bound + slack)
    cols = {}
    for (r, c), v in img.items():
        cols.setdefault(c, {})[r] = v
    inside = []
    for c in sorted(cols):
        vec = cols[c]
        if all(r <= bound for r in vec):
            inside.append(vec)
    # exact rank over the rationals
    rank = 0
    pivots = {}
    for vec in inside:
        vec = dict(vec)
        for p, row in pivots.items():
            if p in vec:
                f = vec[p]
                vec = {k: vec.get(k, Fraction(0)) - f * row.get(k, Fraction(0))
                       for k in set(vec) | set(row)}
                vec = {k: v for k, v in vec.items() if v}
        if vec:
            p = min(vec)
            pivots[p] = {k: v / vec[p] for k, v in vec.items()}
            rank += 1
    cocycles = bound + 1  # all of N_{<= bound}: the complex stops there
    return cocycles - rank


def test_ext_dimension_weyl1_against_oracle():
    bundle = _weyl1_problem()
    computer = ExtComputer(bundle, degree_bound=4)
    got = computer.ext_dimension(2, 1, 1)
    for bound in (3, 4, 5, 6):
        assert _oracle_weyl1_ext1_dim(bound) == 1
    assert got == 1
    assert computer.ext_dimension(2, 1, 2) == 0
    assert computer.ext_dimension(1, 2, 1) == 1


def test_ext_basis_weyl(weyl_computer, weyl_computed_basis, weyl):
    for (i, j) in NONZERO_EXT1:
        assert len(weyl_computed_basis.ext1[(i, j)]) == 1
    for i in range(1, 5):
        for j in range(1, 5):
            if (i, j) not in NONZERO_EXT1:
                assert weyl_computed_basis.ext1[(i, j)] == []
    # the hand-picked degree-2 class projects onto the computed basis
    preset_y14 = weyl.preset_basis.ext2_rep(1, 4, 1)
    coeffs, witness = project_ext2(preset_y14, weyl_computed_basis.ext2[(1, 4)])
    assert len(coeffs) == 1 and coeffs[0] != 0


@pytest.mark.parametrize("args, rungs", [
    ((4, 2, 12), [4, 6, 8, 10, 12]),
    ((5, 2, 12), [5, 7, 9, 11, 12]),
    ((13, 2, 12), [13]),
])
def test_bound_ladder_rungs(args, rungs):
    assert list(bound_ladder(*args)) == rungs


def test_lift_tries_a_degree_bound_above_max_bound(weyl):
    computer = ExtComputer(weyl.bundle, degree_bound=6, retry_step=2, max_bound=4)
    (rep,) = computer.ext_basis(1, 2, 1)
    assert is_cocycle(rep)


def test_sparse_system_adds_cancels_and_sorts(weyl):
    pres = weyl.bundle.pres
    system = SparseSystem()
    system.add((1,), pres.parse("x + 2*y"), "u")
    system.add((0,), pres.parse("x"), "v", scale=3)
    system.add((1,), pres.parse("x"), "u", scale=-1)
    system.add((1,), pres.parse("y"))
    assert system.equations() == [({"v": 3}, 0), ({"u": 2}, 1)]


def test_bundle_leaves_resolutions_unchanged():
    pres = preset_presentation("poly1")
    res = FreeResolution(pres, ["x"], [1, 1], [[["x"]]], name="M")
    diffs = list(res.diffs)
    bundle = ResolutionBundle(pres, [res])
    assert bundle.mmax == 2
    assert (res.ranks, res.diffs, res.mmax) == ([1, 1], diffs, 1)
    assert bundle.res(1).diff(1) == Mat(0, 1)


def test_solve_coboundary_zero(weyl):
    z = weyl.bundle.zero_cochain(2, 1, 4)
    alpha = solve_coboundary(z)
    assert yoneda_differential(alpha).is_zero()


def test_solve_coboundary_from_preimage(weyl):
    # an honest coboundary: d(alpha0) for a random 1-cochain alpha0
    bundle = weyl.bundle
    rng = random.Random(23)
    pres = bundle.pres
    words = pres.normal_words(2)
    for (i, j) in [(1, 4), (2, 3)]:
        mats = []
        for m in range(bundle.mmax):
            nrows = bundle.res(j).rank(m + 1)
            ncols = bundle.res(i).rank(m)
            entries = {}
            for r in range(nrows):
                for c in range(ncols):
                    entries[(r, c)] = pres.element(
                        {words[rng.randrange(len(words))]: rng.randint(-2, 2)})
            mats.append(Mat(nrows, ncols, entries))
        alpha0 = Cochain(bundle, 1, i, j, mats)
        y = yoneda_differential(alpha0)
        alpha = solve_coboundary(y)
        assert yoneda_differential(alpha).add(y).is_zero()


def test_solve_coboundary_rejects_obstruction(weyl):
    # the cup-product cocycle represents a nonzero class, so it has no primitive
    basis = weyl.preset_basis
    y = compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1))
    with pytest.raises(NotACoboundary):
        solve_coboundary(y, degree_bound=4, max_bound=6)


def test_project_ext2_known_values(weyl):
    basis = weyl.preset_basis
    pairs = {
        ((1, 2), (2, 4)): ((1, 4), Fraction(-1)),
        ((1, 3), (3, 4)): ((1, 4), Fraction(1)),
        ((2, 1), (1, 3)): ((2, 3), Fraction(-1)),
        ((2, 4), (4, 3)): ((2, 3), Fraction(1)),
        ((3, 1), (1, 2)): ((3, 2), Fraction(1)),
        ((3, 4), (4, 2)): ((3, 2), Fraction(-1)),
        ((4, 2), (2, 1)): ((4, 1), Fraction(1)),
        ((4, 3), (3, 1)): ((4, 1), Fraction(-1)),
    }
    for (left, right), (target, value) in pairs.items():
        y = compose_cochains(basis.ext1_rep(*left, 1), basis.ext1_rep(*right, 1))
        coeffs, witness = project_ext2(y, basis.ext2[target])
        assert coeffs == [value]


def test_project_ext2_unit_vectors(weyl, weyl_computed_basis):
    for basis in (weyl.preset_basis, weyl_computed_basis):
        for (i, j), reps in sorted(basis.ext2.items()):
            for l, rep in enumerate(reps):
                coeffs, _ = project_ext2(rep, reps)
                want = [Fraction(1) if k == l else Fraction(0)
                        for k in range(len(reps))]
                assert coeffs == want


def test_project_ext2_additive(weyl):
    basis = weyl.preset_basis
    y1 = compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1))
    y2 = compose_cochains(basis.ext1_rep(1, 3, 1), basis.ext1_rep(3, 4, 1))
    c1, _ = project_ext2(y1, basis.ext2[(1, 4)])
    c2, _ = project_ext2(y2, basis.ext2[(1, 4)])
    c12, _ = project_ext2(y1.add(y2), basis.ext2[(1, 4)])
    assert [a + b for a, b in zip(c1, c2)] == c12


def test_project_ext2_coboundary_is_zero(weyl):
    bundle = weyl.bundle
    rng = random.Random(3)
    pres = bundle.pres
    words = pres.normal_words(2)
    mats = []
    for m in range(bundle.mmax):
        nrows = bundle.res(4).rank(m + 1)
        ncols = bundle.res(1).rank(m)
        entries = {(r, c): pres.element(
            {words[rng.randrange(len(words))]: rng.randint(-2, 2)})
            for r in range(nrows) for c in range(ncols)}
        mats.append(Mat(nrows, ncols, entries))
    y = yoneda_differential(Cochain(bundle, 1, 1, 4, mats))
    coeffs, _ = project_ext2(y, weyl.preset_basis.ext2[(1, 4)])
    assert coeffs == [Fraction(0)]


def test_certify_preset_basis(weyl, weyl_computer):
    assert weyl.preset_basis.certify(weyl_computer)
