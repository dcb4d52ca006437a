import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef.algebra import AlgebraPresentation, QuotientModule, preset_presentation
from ncdef.errors import (NotACoboundary, NotStabilized, ProjectionFailed, ShapeMismatch,
                          ValidationError)
from ncdef.linalg import Echelon, kernel_basis
from ncdef.massey import init_order2, order_obstructions
from ncdef.presets import RunOptions
from ncdef.yoneda import (BOUNDARY_SLACK, Cochain, ExtComputer, FreeResolution, Mat,
                          ResolutionBundle, SparseSystem,
                          compose_cochains, is_cocycle, project_ext2,
                          solve_coboundary, yoneda_differential)

NONZERO_EXT1 = [(1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]
NONZERO_EXT2 = [(1, 4), (2, 3), (3, 2), (4, 1)]


def test_resolutions_compose_to_zero(weyl, poly1):
    for bundle in (weyl.bundle, poly1.bundle):
        for res in bundle.resolutions.values():
            for m in range(len(res.diffs) - 1):
                assert res.diffs[m + 1].mul(res.diffs[m]).is_zero()


def test_d0_must_map_into_the_ideal():
    # over weyl1, Dx*x = x*Dx + 1 has class 1 in A/A*Dx, and x*Dx class 0
    pres = preset_presentation("weyl1")
    with pytest.raises(ValidationError, match="d_0 does not map into the ideal"):
        FreeResolution(pres, ["Dx"], [1, 1], [[["Dx*x"]]])
    assert FreeResolution(pres, ["Dx"], [1, 1], [[["x*Dx"]]]).mmax == 1


def test_differential_of_zero(weyl):
    z = weyl.bundle.zero_cochain(1, 1, 2)
    assert yoneda_differential(z).is_zero()


def test_preset_representatives_are_cocycles(weyl):
    basis = weyl.preset_basis
    for (i, j) in NONZERO_EXT1:
        assert is_cocycle(basis.ext1_rep(i, j, 1))
    for (i, j) in NONZERO_EXT2:
        assert is_cocycle(basis.ext2[(i, j)][0])


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
    m = FreeResolution(pres, ["Dx"], [1, 1], [[["Dx"]]])
    n = FreeResolution(pres, ["x"], [1, 1], [[["x"]]])
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
    computer = ExtComputer(bundle, RunOptions().ladder)
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
    preset_y14 = weyl.preset_basis.ext2[(1, 4)][0]
    ((coeffs, witness),) = project_ext2([preset_y14],
                                        weyl_computed_basis.ext2[(1, 4)],
                                        RunOptions().ladder)
    assert len(coeffs) == 1 and coeffs[0] != 0


@pytest.mark.parametrize("args, rungs", [
    ((4, 2, 12), [4, 6, 8, 10, 12]),
    ((5, 2, 12), [5, 7, 9, 11, 12]),
    ((13, 2, 12), [13]),
])
def test_bound_ladder_rungs(args, rungs):
    assert RunOptions(*args).ladder == tuple(rungs)


@pytest.mark.parametrize("retry_step", [0, -2])
def test_bound_ladder_rejects_a_step_below_one(retry_step):
    # such a ladder would repeat its first rung or walk down forever
    with pytest.raises(ValidationError):
        RunOptions(4, retry_step, 12).ladder


def _profile_rows(computer, i, j, n, bound):
    """The rows of the d_{n-1} rank profile at bound + BOUNDARY_SLACK."""
    return computer._rank_profile(i, j, n - 1, [bound + BOUNDARY_SLACK])[0]


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_boundary_echelon_is_the_window_part_of_the_boundaries(problem, request,
                                                                monkeypatch):
    # rank of (boundaries intersect window) = rank of all boundary generators
    # minus rank of their projections onto the columns outside the window;
    # the echelon is the one that every potential image, with the outside
    # columns ranked first, gives, though it adds only rows of the profile
    bundle = request.getfixturevalue(problem).bundle
    computer = ExtComputer(bundle, RunOptions().ladder)
    degree = bundle.pres.word_degree
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add",
                        lambda self, vec: added.append(vec) or add(self, vec))
    for i in range(1, bundle.p + 1):
        for j in range(1, bundle.p + 1):
            for n in (1, 2):
                for bound in (4, 5):
                    rows = _profile_rows(computer, i, j, n, bound)
                    added.clear()
                    ech = computer._boundary_echelon(bound, rows)
                    profile_rows = [{(r, w): c for (_, r, w), c in row.items()}
                                    for _, row in rows]
                    assert all(vec in profile_rows for vec in added)
                    whole, outside, probes = Echelon(), Echelon(), []
                    for _, v in _reference_images(computer, i, j, n - 1,
                                                  bound + BOUNDARY_SLACK):
                        whole.add(v)
                        above = {c: x for c, x in v.items() if degree(c[1]) > bound}
                        outside.add(above)
                        probes.append({c: x for c, x in v.items() if c not in above})
                    assert len(ech.rows) == len(whole.rows) - len(outside.rows)
                    assert all(degree(c[1]) <= bound
                               for row in ech.rows.values() for c in row)
                    want = _reference_window_echelon(computer, i, j, n, bound)
                    assert ech.reduced_rows() == want.reduced_rows()
                    assert [ech.reduce(v) for v in probes] == \
                        [want.reduce(v) for v in probes]


def test_lift_tries_a_degree_bound_above_max_bound(weyl):
    computer = ExtComputer(weyl.bundle, RunOptions(degree_bound=6, max_bound=4).ladder)
    (rep,) = computer.ext_basis(1)[(1, 2)]
    assert is_cocycle(rep)


def test_sparse_system_adds_cancels_and_sorts(weyl):
    pres = weyl.bundle.pres
    system = SparseSystem()
    system.add((1,), pres.parse("x + 2*y"), "u")
    system.add((0,), pres.parse("x"), "v", scale=3)
    system.add((1,), pres.parse("x"), "u", scale=-1)
    system.add((1,), pres.parse("y"))
    system.add((2,), pres.parse("y"), target=1)
    assert system.equations() == [({"v": 3}, {}), ({"u": 2}, {0: 1}), ({}, {1: 1})]


def test_bundle_leaves_resolutions_unchanged():
    pres = preset_presentation("poly1")
    res = FreeResolution(pres, ["x"], [1, 1], [[["x"]]])
    diffs = list(res.diffs)
    bundle = ResolutionBundle(pres, [res])
    assert bundle.mmax == 2
    assert (res.ranks, res.diffs, res.mmax) == ([1, 1], diffs, 1)
    assert bundle.res(1).diff(1) == Mat(0, 1)


def test_solve_coboundary_zero(weyl):
    z = weyl.bundle.zero_cochain(2, 1, 4)
    (alpha,) = solve_coboundary([z], RunOptions().ladder)
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
        (alpha,) = solve_coboundary([y], RunOptions().ladder)
        assert yoneda_differential(alpha).add(y).is_zero()


def test_solve_coboundary_rejects_obstruction(weyl):
    # the cup-product cocycle represents a nonzero class, so it has no primitive
    basis = weyl.preset_basis
    y = compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1))
    with pytest.raises(NotACoboundary):
        solve_coboundary([y], RunOptions(max_bound=6).ladder)


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
        ((coeffs, witness),) = project_ext2([y], basis.ext2[target], RunOptions().ladder)
        assert coeffs == [value]


def test_project_ext2_unit_vectors(weyl, weyl_computed_basis):
    for basis in (weyl.preset_basis, weyl_computed_basis):
        for (i, j), reps in sorted(basis.ext2.items()):
            for l, rep in enumerate(reps):
                ((coeffs, _),) = project_ext2([rep], reps, RunOptions().ladder)
                want = [Fraction(1) if k == l else Fraction(0)
                        for k in range(len(reps))]
                assert coeffs == want


def test_project_ext2_additive(weyl):
    basis = weyl.preset_basis
    y1 = compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1))
    y2 = compose_cochains(basis.ext1_rep(1, 3, 1), basis.ext1_rep(3, 4, 1))
    (c1, _), (c2, _), (c12, _) = project_ext2([y1, y2, y1.add(y2)], basis.ext2[(1, 4)],
                                              RunOptions().ladder)
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
    ((coeffs, _),) = project_ext2([y], weyl.preset_basis.ext2[(1, 4)],
                                  RunOptions().ladder)
    assert coeffs == [Fraction(0)]


def test_certify_preset_basis(weyl, weyl_computer):
    assert weyl.preset_basis.certify(weyl_computer)


# ---------------------------------------------------------------------------
# batched solves: one elimination per operator and rung for all targets


def _coboundary_of_degree(bundle, i, j, rng, degree):
    """d(alpha0) for a 1-cochain alpha0 whose entries are words of one degree."""
    pres = bundle.pres
    words = [w for w in pres.normal_words(degree) if pres.word_degree(w) == degree]
    mats = []
    for m in range(bundle.mmax):
        nrows, ncols = bundle.res(j).rank(m + 1), bundle.res(i).rank(m)
        mats.append(Mat(nrows, ncols, {
            (r, c): pres.element({rng.choice(words): rng.randint(1, 2)})
            for r in range(nrows) for c in range(ncols)}))
    return yoneda_differential(Cochain(bundle, 1, i, j, mats))


def _rungs_used(pres, monkeypatch):
    """Record the bound of every normal-word enumeration, one per rung."""
    bounds = []
    normal_words = pres.normal_words

    def counting(bound):
        bounds.append(bound)
        return normal_words(bound)

    monkeypatch.setattr(pres, "normal_words", counting)
    return bounds


def test_batched_coboundaries_finish_on_their_own_rungs(weyl, monkeypatch):
    # primitives of degree 2, 5 and 7 first solve at the rungs 4, 6 and 8
    bundle = weyl.bundle
    rng = random.Random(5)
    ys = [_coboundary_of_degree(bundle, 1, 4, rng, d) for d in (2, 5, 7)]
    for y, rung in zip(ys, (4, 6, 8)):
        if rung > 4:
            with pytest.raises(NotACoboundary):
                solve_coboundary([y], RunOptions(max_bound=rung - 2).ladder)
    separate = [solve_coboundary([y], RunOptions(max_bound=8).ladder)[0] for y in ys]
    bounds = _rungs_used(bundle.pres, monkeypatch)
    batch = solve_coboundary(ys, RunOptions(max_bound=8).ladder)
    assert bounds == [4, 6, 8]
    assert batch == separate
    for y, alpha in zip(ys, batch):
        assert yoneda_differential(alpha).add(y).is_zero()


def test_batch_with_an_unsolvable_target_still_raises(weyl):
    bundle = weyl.bundle
    basis = weyl.preset_basis
    cup = compose_cochains(basis.ext1_rep(1, 2, 1), basis.ext1_rep(2, 4, 1))
    honest = _coboundary_of_degree(bundle, 1, 4, random.Random(7), 2)
    with pytest.raises(NotACoboundary):
        solve_coboundary([honest, cup], RunOptions(max_bound=6).ladder)
    # a nonzero class has no expansion over an empty basis
    with pytest.raises(ProjectionFailed):
        project_ext2([honest, cup], [], RunOptions(max_bound=6).ladder)
    # the same batch over the class's basis solves, with the honest
    # coboundary at zero
    (c0, _), (c1, _) = project_ext2([honest, cup], basis.ext2[(1, 4)],
                                    RunOptions().ladder)
    assert c0 == [Fraction(0)] and c1 == [Fraction(-1)]


def _obstructions_by_type(ext):
    """The nonzero order-2 obstructions of a problem, grouped by type."""
    _, ys, _ = order_obstructions(init_order2(ext, RunOptions()))
    groups = {}
    for x in sorted(ys, key=lambda x: x.key()):
        if not ys[x].is_zero():
            groups.setdefault(ys[x].type, []).append(ys[x])
    return groups


@pytest.mark.parametrize("problem, basis", [("weyl", "weyl_computed_basis"),
                                            ("poly3", "poly3_computed_basis")])
def test_batched_projections_equal_separate_calls(problem, basis, request):
    bundle = request.getfixturevalue(problem).bundle
    ext = request.getfixturevalue(basis)
    rng = random.Random(11)
    groups = _obstructions_by_type(ext)
    assert groups
    for (i, j), ys in groups.items():
        reps = ext.ext2[(i, j)]
        # with a basis cocycle and an honest coboundary in the same batch
        batch_in = ys + reps[:1] + [_coboundary_of_degree(bundle, i, j, rng, 2)]
        batch = project_ext2(batch_in, reps, RunOptions().ladder)
        separate = [project_ext2([y], reps, RunOptions().ladder)[0] for y in batch_in]
        assert batch == separate
        assert batch[-1][0] == [Fraction(0)] * len(reps)


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_batched_ext_lifts_equal_separate_lifts(problem, request, monkeypatch):
    # one solve per step and unknown shape: on poly3 (ranks 1, 3, 3, 1) step
    # 0 of the Ext^1 lifts has a 3 x 3 unknown and step 0 of the Ext^2 lifts
    # a 1 x 3 one, then step 1 of Ext^1 has a 1 x 3 one against D_1; on
    # weyl2-simple4 only Ext^1 takes a step
    solves = {"weyl": 1, "poly3": 3}[problem]
    computer = ExtComputer(request.getfixturevalue(problem).bundle, RunOptions().ladder)
    p = computer.bundle.p
    calls = []
    solve = computer._solve_unknown_times_known
    monkeypatch.setattr(computer, "_solve_unknown_times_known",
                        lambda *args: calls.append(args[:2] + (args[2].ncols,))
                        or solve(*args))
    lifted = 0
    for i in range(1, p + 1):
        del calls[:]
        reps = computer.ext_basis(i)
        assert len(calls) == solves == len(set(calls))
        groups = []
        for j in range(1, p + 1):
            for n, dim, boundaries, images in computer._hom_groups(i, j):
                vecs = computer._hom_representatives(images, dim, boundaries)
                assert computer._lift_to_yoneda(i, [(j, n, vecs)]) == [reps[(n, j)]]
                assert reps[(n, j)] == [computer._lift_to_yoneda(i, [(j, n, [v])])[0][0]
                                        for v in vecs]
                if vecs:
                    # the sum of the cocycles is one more cocycle in the batch
                    total = {}
                    for vec in vecs:
                        for key, c in vec.items():
                            total[key] = total.get(key, 0) + c
                    with_sum = vecs + [{k: c for k, c in total.items() if c}]
                    # the batch holding the dependent target against each
                    # vector lifted alone
                    assert computer._lift_to_yoneda(i, [(j, n, with_sum)])[0] == [
                        computer._lift_to_yoneda(i, [(j, n, [v])])[0][0]
                        for v in with_sum]
                    groups.append((j, n, with_sum))
                lifted += len(vecs)
        assert computer._lift_to_yoneda(i, groups) == [
            computer._lift_to_yoneda(i, [group])[0] for group in groups]
    assert lifted >= 2 * p


def _reference_images(computer, i, j, m, bound):
    """Each coordinate's image computed on its own, at ``bound``."""
    return [(lab, computer._images(i, j, m, [lab])[lab])
            for lab in computer._coords(i, j, m, bound)]


def _reference_window_echelon(computer, i, j, n, bound):
    """The boundaries of Ext^n(M_j, M_i) inside the bound-``bound`` window,
    from every potential image at bound + BOUNDARY_SLACK: they go into an
    echelon in which the columns above the bound outrank the window, and
    the rows that pivot outside are dropped."""
    degree = computer.bundle.pres.word_degree
    whole = Echelon()
    for _, v in _reference_images(computer, i, j, n - 1, bound + BOUNDARY_SLACK):
        whole.add({(degree(w) > bound, r, w): c for (r, w), c in v.items()})
    window = Echelon()
    for (outside, _, _), row in whole.rows.items():
        if not outside:
            window.add({(r, w): c for (_, r, w), c in row.items()})
    return window


def _reference_hom_dims(computer, i, j, n, bound):
    """(kernel dim, boundary echelon) with every image computed at ``bound``."""
    images = _reference_images(computer, i, j, n, bound)
    ech = Echelon()
    rank = sum(1 for _, v in images if v and ech.add(v) is not None)
    return len(images) - rank, _reference_window_echelon(computer, i, j, n, bound)


def _reference_hom_representatives(computer, i, j, n, bound, dim, boundaries):
    """The representatives chosen from images recomputed at ``bound``."""
    if dim == 0:
        return []
    coords, images = zip(*_reference_images(computer, i, j, n, bound))
    chosen = []
    chosen_ech = Echelon()
    for vec in kernel_basis(list(images), tags=list(coords)):
        resid = chosen_ech.reduce(boundaries.reduce(vec))
        if resid:
            lead = min(resid, key=lambda lab: (
                computer.bundle.pres.word_degree(lab[1]), lab[1], lab[0]))
            resid = {k: c / resid[lead] for k, c in resid.items()}
            chosen.append(resid)
            chosen_ech.add(dict(resid))
        if len(chosen) == dim:
            break
    return chosen


def _in_order(vec):
    return list(vec.items())


def _rows(ech):
    return [(p, _in_order(row)) for p, row in ech.rows.items()]


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
@pytest.mark.parametrize("bound", [4, 5])
def test_hom_images_once_match_per_bound_images(problem, bound, request):
    # dims, boundary rows and chosen vectors, dict order included, as when
    # each bound computed its own images
    computer = ExtComputer(request.getfixturevalue(problem).bundle,
                           RunOptions(degree_bound=bound).ladder)
    p = computer.bundle.p
    chosen = 0
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            for n, dim, boundaries, images in computer._hom_groups(i, j):
                kz, want_ech = _reference_hom_dims(computer, i, j, n, bound)
                kz2, ech2 = _reference_hom_dims(computer, i, j, n, bound + 1)
                want_dim = kz - len(want_ech.rows)
                assert want_dim == kz2 - len(ech2.rows)
                assert dim == want_dim == computer.ext_dimension(i, j, n)
                if not dim:
                    # no rows are kept for a group without classes; built
                    # directly, its window rows are still the reference's
                    assert boundaries is None and images is None
                    rows = _profile_rows(computer, i, j, n, bound)
                    assert _rows(computer._boundary_echelon(bound, rows)) == \
                        _rows(want_ech)
                    continue
                # on these problems the representatives would come out the
                # same from the images at bound + 1, so check the images too
                assert [(lab, _in_order(v)) for lab, v in images.items()] == \
                    [(lab, _in_order(v))
                     for lab, v in _reference_images(computer, i, j, n, bound)]
                assert _rows(boundaries) == _rows(want_ech)
                want = _reference_hom_representatives(computer, i, j, n, bound,
                                                      want_dim, want_ech)
                got = computer._hom_representatives(images, dim, boundaries)
                assert [_in_order(v) for v in got] == [_in_order(v) for v in want]
                chosen += len(got)
    assert chosen >= p


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_ext_basis_computes_each_hom_image_once(problem, request):
    # the degree-1 images serve the Ext^1 cocycles up to B + 1 and, as
    # potentials, the Ext^2 boundaries up to B + 1 + BOUNDARY_SLACK; taken
    # from one rank profile, they give what each degree gets alone
    bundle = request.getfixturevalue(problem).bundle
    computer = ExtComputer(bundle, RunOptions().ladder)
    images = computer._images
    calls = {}

    def counted(i, j, m, labels):
        for lab in labels:
            calls[(i, j, m, lab)] = calls.get((i, j, m, lab), 0) + 1
        return images(i, j, m, labels)

    computer._images = counted
    for i in range(1, bundle.p + 1):
        computer.ext_basis(i)
    assert calls and set(calls.values()) == {1}
    assert {m for _, _, m, _ in calls} == {0, 1, 2}
    computer._images = images
    for i in range(1, bundle.p + 1):
        for j in range(1, bundle.p + 1):
            for n, dim, boundaries, images_n in computer._hom_groups(i, j):
                kernel_dim, boundaries2 = _reference_hom_dims(
                    computer, i, j, n, computer.degree_bound)
                images2 = dict(_reference_images(computer, i, j, n, computer.degree_bound))
                assert dim == kernel_dim - len(boundaries2.rows)
                if dim:
                    assert _rows(boundaries) == _rows(boundaries2)
                    assert [(lab, _in_order(v)) for lab, v in images_n.items()] == \
                        [(lab, _in_order(v)) for lab, v in images2.items()]


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_a_cold_ext_table_profiles_each_pair_once(problem, request):
    # one rank profile of d_0, d_1 and d_2 per pair serves both degrees,
    # whichever of ext_dimension, ext_tables and _hom_groups asks first
    from ncdef.report import ext_tables

    bundle = request.getfixturevalue(problem).bundle
    p = bundle.p
    want = ext_tables(ExtComputer(bundle, RunOptions().ladder), p)
    for first in ("tables", "groups"):
        computer = ExtComputer(bundle, RunOptions().ladder)
        profile, profiled = computer._rank_profile, []
        computer._rank_profile = lambda i, j, m, bounds: (
            profiled.append((i, j, m)) or profile(i, j, m, bounds))
        if first == "groups":
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    computer._hom_groups(i, j)
        assert ext_tables(computer, p) == want
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                for n in (1, 2):
                    computer.ext_dimension(i, j, n)
        assert sorted(profiled) == [(i, j, m) for i in range(1, p + 1)
                                    for j in range(1, p + 1) for m in (0, 1, 2)]


def test_ext_dimension_of_a_stable_degree_beside_an_unstable_one():
    # the line's self-extensions grow with the bound, while its Ext^2 is 0
    computer = ExtComputer(_line_over_the_plane(), RunOptions().ladder)
    assert computer.ext_dimension(1, 1, 2) == 0
    with pytest.raises(NotStabilized, match="Ext\\^1"):
        computer.ext_dimension(1, 1, 1)
    with pytest.raises(NotStabilized, match="Ext\\^1"):
        computer._hom_groups(1, 1)
    with pytest.raises(ValidationError, match="n = 1 or 2"):
        computer.ext_dimension(1, 1, 3)


def _reference_dimension(computer, i, j, n):
    """dim Ext^n(M_j, M_i) counted as kernel dim less window boundaries, each
    bound with its own images and its own window echelon."""
    dims = []
    for bound in (computer.degree_bound, computer.degree_bound + 1):
        kernel_dim, boundaries = _reference_hom_dims(computer, i, j, n, bound)
        dims.append(kernel_dim - len(boundaries.rows))
    if dims[0] != dims[1]:
        raise NotStabilized("unstable")
    return dims[0]


def _line_over_the_plane():
    pres = AlgebraPresentation(["x", "y"], [(("y", "x"), [(("x", "y"), 1)])])
    return ResolutionBundle(pres, [FreeResolution(pres, ["x"], [1, 1], [[["x"]]])])


@pytest.mark.parametrize("problem", ["weyl", "poly3", "poly1", "weyl1", "line"])
def test_rank_profile_dims_match_the_window_echelons(problem, request):
    # cocycles from one rank profile per differential and boundaries as
    # rank(V) - rank(pi_out V) against the window echelons they replace
    if problem == "weyl1":
        bundle = _weyl1_problem()
    elif problem == "line":
        bundle = _line_over_the_plane()
    else:
        bundle = request.getfixturevalue(problem).bundle
    outcomes = set()
    for bound in range(1, 9):
        computer = ExtComputer(bundle, RunOptions(degree_bound=bound).ladder)
        for i in range(1, bundle.p + 1):
            for j in range(1, bundle.p + 1):
                for n in (1, 2):
                    try:
                        want = _reference_dimension(computer, i, j, n)
                    except NotStabilized:
                        want = NotStabilized
                    try:
                        got = computer.ext_dimension(i, j, n)
                    except NotStabilized:
                        got = NotStabilized
                    assert got == want, (bound, i, j, n)
                    outcomes.add(got)
    # the line's self-extensions grow with the bound, so it never stabilizes
    assert outcomes == {"weyl": {0, 1}, "poly3": {3}, "poly1": {0, 1}, "weyl1": {0, 1},
                        "line": {0, NotStabilized}}[problem]


def _count_trades(monkeypatch):
    traded = []
    trade = QuotientModule._trade
    monkeypatch.setattr(QuotientModule, "_trade",
                        lambda self, *args: traded.append(args) or trade(self, *args))
    return traded


def test_ext_of_weyl2_at_degree_bound_12_stays_small(monkeypatch, capsys):
    # the module actions and classes come from the action table's rules, not
    # from trading each product (2,196 trade-loop reductions before the
    # table), and only the 12 nonzero Ext groups build a window echelon (64
    # before)
    from ncdef.cli import main
    traded, windows = _count_trades(monkeypatch), []
    window = ExtComputer._boundary_echelon
    monkeypatch.setattr(ExtComputer, "_boundary_echelon",
                        lambda self, *args: windows.append(args) or window(self, *args))
    assert main(["ext", "--preset", "weyl2-simple4", "--computed-basis",
                 "--degree-bound", "12", "--json"]) == 0
    capsys.readouterr()
    assert len(traded) == 0
    assert len(windows) == 12


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "weyl2-simple4", "--no-early-stop", "--max-order", "7"],
    ["run", "--spec", str(Path(__file__).resolve().parent.parent / "perfbench"
                          / "poly3.json"), "--degree-bound", "12"],
])
def test_benchmark_runs_never_reduce_a_module_element(argv, monkeypatch, capsys):
    # the d_0 checks and the Hom-complex images of the representatives read
    # each word's class off the action table, and no entry takes a trade step
    from ncdef.cli import main
    traded = _count_trades(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(traded) == 0
