"""Bounded solves build only the components their right-hand sides reach.

The reference is a copy of the full operator builders, which multiply
every known entry by every normal word up to the bound.  On each recorded
solve and on every bound from 4 to 8, the restricted system must give the
same ``solve_sparse`` results, dict order, value types and ``None``s
included, and each of its rows must be the full system's row for that key:
the rows kept are whole components of the full system.
"""

import random
from pathlib import Path

import pytest

import ncdef.checker
import ncdef.yoneda as yoneda
from ncdef.algebra import multiply
from ncdef.cli import main
from ncdef.linalg import solve_sparse
from ncdef.massey import init_order2, order_obstructions
from ncdef.presets import RunOptions
from ncdef.yoneda import (Cochain, ExtComputer, FreeResolution, Mat, ResolutionBundle,
                          SparseSystem, _solve_cochain_equation, _terms, project_ext2,
                          solve_coboundary, yoneda_differential)

ROOT = Path(__file__).resolve().parents[1]
BOUNDS = range(4, 9)


def _full_lift(pres, nrows, known, bound):
    """U * known == rhs with every normal word in every entry of U."""
    words = pres.normal_words(bound)
    system = SparseSystem()
    for (t, c), a in known.entries.items():
        for w in words:
            prod = multiply(pres.element({w: 1}), a)
            for r in range(nrows):
                system.add((r, c), prod, ("u", r, t, w))
    return system


def _full_cochain(bundle, i, j, basis, bound):
    """sum_l c_l basis_l + d(alpha) with every normal word in every entry of alpha."""
    pres = bundle.pres
    res_i, res_j = bundle.res(i), bundle.res(j)
    words = pres.normal_words(bound)
    system = SparseSystem()
    for m in range(bundle.mmax - 1):
        for (r2, t), a in res_j.diff(m + 1).entries.items():
            for w in words:
                prod = multiply(a, pres.element({w: 1}))
                for c2 in range(res_i.rank(m)):
                    system.add((m, r2, c2), prod, ("a", m, t, c2, w))
        for (t, c2), a in res_i.diff(m).entries.items():
            for w in words:
                prod = multiply(pres.element({w: 1}), a)
                for r2 in range(res_j.rank(m + 2)):
                    system.add((m, r2, c2), prod, ("a", m + 1, r2, t, w))
    for l, b in enumerate(basis):
        for eq, v in _terms(b):
            system.add(eq, v, ("c", l))
    return system


def _record_operators(monkeypatch):
    """Record the right-hand sides and the operator of every ladder solve."""
    records = []
    solve = yoneda._solve_on_ladder

    def recording(ladder, rhss, operator, accept):
        records.append((rhss, operator))
        return solve(ladder, rhss, operator, accept)

    monkeypatch.setattr(yoneda, "_solve_on_ladder", recording)
    return records


def _typed(vec):
    return [(k, v, type(v)) for k, v in vec.items()]


def _with_rhs(system, rhss):
    for target, terms in enumerate(rhss):
        for eq, elem in terms:
            system.add(eq, elem, target=target)
    return system


def _check_against_full(records, fulls):
    """Compare each recorded operator with its full builder at every bound;
    returns the equation counts (restricted, full) summed over all of them."""
    assert records and len(records) == len(fulls)
    kept = total = 0
    for (rhss, operator), full_at in zip(records, fulls):
        for bound in BOUNDS:
            restricted = _with_rhs(operator(bound, rhss), rhss)
            full = _with_rhs(full_at(bound), rhss)
            for key, row in restricted.rows.items():
                if row[0] or row[1]:
                    assert [_typed(part) for part in full.rows[key]] == [
                        _typed(part) for part in row]
            got = solve_sparse(restricted.equations(), len(rhss))
            want = solve_sparse(full.equations(), len(rhss))
            assert [s if s is None else _typed(s) for s in got] == [
                s if s is None else _typed(s) for s in want]
            kept += len(restricted.equations())
            total += len(full.equations())
    return kept, total


def _random_cochain(bundle, degree, i, j, rng, max_degree):
    pres = bundle.pres
    words = pres.normal_words(max_degree)
    mats = []
    for m in range(bundle.mmax - degree + 1):
        nrows, ncols = bundle.res(j).rank(m + degree), bundle.res(i).rank(m)
        mats.append(Mat(nrows, ncols, {
            (r, c): pres.element({rng.choice(words): rng.randint(1, 2),
                                  rng.choice(words): rng.randint(-2, -1)})
            for r in range(nrows) for c in range(ncols)}))
    return Cochain(bundle, degree, i, j, mats)


def _coboundary(bundle, i, j, rng, max_degree=3):
    return yoneda_differential(_random_cochain(bundle, 1, i, j, rng, max_degree))


def _recorded_lifts(computer, monkeypatch, run):
    """The operators of the lifts ``run`` makes, each with its full builder."""
    pres = computer.bundle.pres
    fulls = []
    solve = computer._solve_unknown_times_known

    def recording(nrows, ncols, known, rhss):
        fulls.append(lambda bound: _full_lift(pres, nrows, known, bound))
        return solve(nrows, ncols, known, rhss)

    monkeypatch.setattr(computer, "_solve_unknown_times_known", recording)
    records = _record_operators(monkeypatch)
    run()
    return records, fulls


@pytest.mark.parametrize("problem", ["weyl", "poly3"])
def test_restricted_lifts_solve_as_the_full_systems(problem, request, monkeypatch):
    computer = ExtComputer(request.getfixturevalue(problem).bundle, RunOptions().ladder)
    records, fulls = _recorded_lifts(computer, monkeypatch, lambda: [
        computer.ext_basis(i) for i in range(1, computer.bundle.p + 1)])
    kept, total = _check_against_full(records, fulls)
    assert kept < total


@pytest.mark.parametrize("problem, basis", [("weyl", "weyl_computed_basis"),
                                            ("poly3", "poly3_computed_basis")])
def test_restricted_cochain_equations_solve_as_the_full_systems(problem, basis, request,
                                                                monkeypatch):
    bundle = request.getfixturevalue(problem).bundle
    ext = request.getfixturevalue(basis)
    _, ys, _ = order_obstructions(init_order2(ext, RunOptions()))
    groups = {}
    for x in sorted(ys, key=lambda x: x.key()):
        if not ys[x].is_zero():
            groups.setdefault(ys[x].type, []).append(ys[x])
    assert groups
    rng = random.Random(3)
    records = _record_operators(monkeypatch)
    fulls = []
    for (i, j), targets in groups.items():
        reps = ext.ext2[(i, j)]
        honest = [_coboundary(bundle, i, j, rng) for _ in range(2)]
        project_ext2(targets + reps[:1] + honest[:1], reps, RunOptions().ladder)
        solve_coboundary(honest, RunOptions().ladder)
        # the obstructions are nonzero classes: no primitive, so None verdicts
        assert None in _solve_cochain_equation(targets + honest, [],
                                               RunOptions(max_bound=6).ladder)
        for basis_l in (reps, [], []):
            fulls.append(lambda bound, i=i, j=j, basis_l=basis_l:
                         _full_cochain(bundle, i, j, basis_l, bound))
    kept, total = _check_against_full(records, fulls)
    assert kept < total


def test_restricted_systems_on_a_count_changing_presentation(count_changing, monkeypatch):
    pres = count_changing
    bundle = ResolutionBundle(pres, [
        FreeResolution(pres, ["x", "z"], [1, 2, 1], [[["x"], ["z"]], [["z", "-x"]]]),
        FreeResolution(pres, ["y", "z"], [1, 2, 1], [[["y"], ["z"]], [["z", "-y"]]])])
    rng = random.Random(17)
    words = pres.normal_words(2)
    computer = ExtComputer(bundle, RunOptions().ladder)

    def lifts():
        for i in (1, 2):
            for known in bundle.res(i).diffs:
                nrows = 2
                unknowns = [Mat(nrows, known.nrows, {
                    (r, t): pres.element({rng.choice(words): rng.randint(1, 3)})
                    for r in range(nrows) for t in range(known.nrows)})
                    for _ in range(2)]
                computer._solve_unknown_times_known(
                    nrows, known.nrows, known, [u.mul(known) for u in unknowns])

    records, fulls = _recorded_lifts(computer, monkeypatch, lifts)
    kept, total = _check_against_full(records, fulls)
    assert kept < total

    records = _record_operators(monkeypatch)
    fulls = []
    verdicts = []
    for i in (1, 2):
        for j in (1, 2):
            targets = [_coboundary(bundle, i, j, rng, 2),
                       _random_cochain(bundle, 2, i, j, rng, 2)]
            basis_l = [_random_cochain(bundle, 2, i, j, rng, 1)]
            verdicts += _solve_cochain_equation(targets, basis_l,
                                                RunOptions(max_bound=6).ladder)
            fulls.append(lambda bound, i=i, j=j, basis_l=basis_l:
                         _full_cochain(bundle, i, j, basis_l, bound))
    assert None in verdicts and any(v is not None for v in verdicts)
    kept, total = _check_against_full(records, fulls)
    assert kept < total


@pytest.mark.parametrize("argv", [
    ["run", "--spec", str(ROOT / "perfbench" / "poly3.json"), "--degree-bound", "12"],
    ["massey", "--preset", "weyl2-simple4", "--computed-basis", "--degree-bound", "12",
     "--monomial", "x12*x24"]], ids=["poly3-proj12", "weyl2-massey12"])
def test_bounded_solves_stay_small_at_degree_bound_12(argv, monkeypatch, capsys):
    # the full operators hand solve_sparse up to 3,360 (poly3) and 2,353
    # (weyl2) equations at once; massey lifts the computed basis of
    # weyl2-simple4, which ext no longer does
    sizes = []
    for module in (yoneda, ncdef.checker):
        solve = module.solve_sparse
        monkeypatch.setattr(module, "solve_sparse",
                            lambda eqs, targets, solve=solve:
                            sizes.append(len(eqs)) or solve(eqs, targets))
    assert main(argv) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= 100
