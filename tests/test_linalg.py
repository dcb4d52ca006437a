import itertools
import random
from fractions import Fraction

import pytest

from ncdef.linalg import Echelon, kernel_basis, solve_sparse, vec_add
from ncdef.matrix_ring import AlgebraMap, divisor_truncation, parse_monomial


def F(n, d=1):
    return Fraction(n, d)


def test_echelon_rank_and_reduce():
    ech = Echelon(priority=lambda c: c)
    assert ech.add({0: F(2), 1: F(2)}) is not None
    assert ech.add({0: F(1), 1: F(1)}) is None
    assert ech.add({1: F(1)}) is not None
    assert ech.rank == 2
    assert ech.reduce({0: F(3), 1: F(5)}) == {}


def test_echelon_priority_steers_pivot():
    ech = Echelon(priority=lambda c: -c)  # prefer small column labels
    pivot = ech.add({0: F(1), 5: F(7)})
    assert pivot == 0


def test_solve_sparse_consistent():
    # x + y = 3, x - y = 1
    sol = solve_sparse([({"x": F(1), "y": F(1)}, F(3)),
                        ({"x": F(1), "y": F(-1)}, F(1))])
    assert sol == {"x": F(2), "y": F(1)}


def test_solve_sparse_underdetermined_free_vars_zero():
    sol = solve_sparse([({"x": F(1), "y": F(2)}, F(4))])
    assert sol is not None
    assert sol.get("x", F(0)) + 2 * sol.get("y", F(0)) == F(4)


def test_solve_sparse_inconsistent():
    assert solve_sparse([({"x": F(1)}, F(1)), ({"x": F(1)}, F(2))]) is None


def _random_system(rng):
    """A small sparse rational system; some rows combine earlier rows, and
    some of those get a shifted right-hand side, which makes it inconsistent."""
    nvars = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 5)):
        if rows and rng.random() < 0.4:
            (va, ra), (vb, rb) = rng.choice(rows), rng.choice(rows)
            ca, cb = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
            vec = {v: ca * va.get(v, 0) + cb * vb.get(v, 0) for v in set(va) | set(vb)}
            rhs = ca * ra + cb * rb + (1 if rng.random() < 0.3 else 0)
        else:
            support = rng.sample(range(nvars), rng.randint(1, min(3, nvars)))
            vec = {("x", v): F(rng.randint(-4, 4), rng.randint(1, 3)) for v in support}
            rhs = F(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append(({v: c for v, c in vec.items() if c}, rhs))
    return nvars, rows


def test_solve_sparse_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(80):
        nvars, rows = _random_system(rng)
        names = [("x", v) for v in range(nvars)]
        A = sympy.Matrix([[sympy.Rational(vec.get(v, 0)) for v in names]
                          for vec, _ in rows])
        b = sympy.Matrix([sympy.Rational(rhs) for _, rhs in rows])
        consistent = A.rank() == A.row_join(b).rank()
        sol = solve_sparse(rows)
        assert (sol is not None) == consistent
        outcomes.add(consistent)
        if sol is not None:
            for vec, rhs in rows:
                assert sum(c * sol.get(v, 0) for v, c in vec.items()) == rhs
        for perm in itertools.permutations(rows):
            other = solve_sparse(list(perm))
            assert other == sol
            assert other is None or list(other.items()) == list(sol.items())
    assert outcomes == {True, False}


def test_kernel_basis():
    vectors = [{0: F(1)}, {0: F(2)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    kernel = kernel_basis(vectors, tags=["a", "b", "c", "d"])
    assert len(kernel) == 2
    for combo in kernel:
        total = {}
        names = {"a": vectors[0], "b": vectors[1], "c": vectors[2],
                 "d": vectors[3]}
        for tag, coeff in combo.items():
            total = vec_add(total, names[tag], coeff)
        assert total == {}


def test_divisor_truncation_small_kernel():
    # the inclusion-of-x variant surjects onto the plain divisor algebra
    # with a one-dimensional kernel spanned by x, killed by the radical
    x = parse_monomial("x12*x24", 4)
    S = divisor_truncation(x, 4)
    R = divisor_truncation(x, 4, include_self=True)
    assert R.dim == S.dim + 1
    images = {label: ({S.index[label]: F(1)} if label in S.index else {})
              for label in R.basis}
    u = AlgebraMap(R, S, images)
    kernel = u.kernel()
    assert len(kernel) == 1
    (vec,) = kernel
    assert set(vec) == {R.index[x]}
    for r in R.radical_indices():
        unit = {r: F(1)}
        assert R.mult_coords(unit, vec) == {}
        assert R.mult_coords(vec, unit) == {}
