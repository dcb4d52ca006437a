import itertools
import random
from fractions import Fraction

import pytest

from ncdef.linalg import Echelon, kernel_basis, solve_sparse, vec_add
from ncdef.matrix_ring import divisor_truncation, parse_monomial


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


def _random_vectors(rng, ncols):
    """Sparse rational vectors over columns 0..ncols-1; some combine earlier ones."""
    vectors = []
    for _ in range(rng.randint(1, 7)):
        if vectors and rng.random() < 0.4:
            a, b = rng.choice(vectors), rng.choice(vectors)
            ca, cb = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
            vec = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in set(a) | set(b)}
        else:
            support = rng.sample(range(ncols), rng.randint(1, min(3, ncols)))
            vec = {c: F(rng.randint(-4, 4), rng.randint(1, 3)) for c in support}
        vectors.append({c: x for c, x in vec.items() if x})
    return vectors


def _sympy_matrix(sympy, vectors, ncols):
    return sympy.Matrix(len(vectors), ncols,
                        lambda r, c: sympy.Rational(vectors[r].get(c, 0)))


@pytest.mark.parametrize("priority", [lambda c: c, lambda c: -c])
def test_echelon_rank_and_reduce_against_sympy(priority):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4120)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        vectors = _random_vectors(rng, ncols)
        ech = Echelon(priority=priority)
        for vec in vectors:
            ech.add(vec)
        A = _sympy_matrix(sympy, vectors, ncols)
        assert ech.rank == A.rank()
        probes = _random_vectors(rng, ncols)
        combo = {}
        for vec in vectors:
            combo = vec_add(combo, vec, F(rng.randint(-2, 2)))
        for v in probes + [combo]:
            in_span = A.col_join(_sympy_matrix(sympy, [v], ncols)).rank() == A.rank()
            assert (ech.reduce(v) == {}) == in_span


def _assert_kernel(sympy, vectors, tags, kernel, ncols):
    by_tag = dict(zip(tags, vectors))
    for relation in kernel:
        total = {}
        for tag, coeff in relation.items():
            total = vec_add(total, by_tag[tag], coeff)
        assert total == {}
    nullity = len(vectors) - _sympy_matrix(sympy, vectors, ncols).rank()
    assert len(kernel) == nullity
    K = sympy.Matrix(len(kernel), len(tags),
                     lambda r, c: sympy.Rational(kernel[r].get(tags[c], 0)))
    assert K.rank() == nullity


def test_kernel_basis_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4121)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        vectors = _random_vectors(rng, ncols)
        tags = ["t%d" % k for k in range(len(vectors))]
        _assert_kernel(sympy, vectors, tags, kernel_basis(vectors, tags=tags), ncols)


def test_kernel_basis_tags_never_meet_column_labels():
    # the tags are the column labels themselves: the combination a relation
    # carries must stay apart from the columns of the vectors
    sympy = pytest.importorskip("sympy")
    vectors = [{0: F(1), 1: F(2)}, {1: F(1)}, {0: F(2), 1: F(5)}, {2: F(3)}]
    tags = [0, 1, 2, 3]
    kernel = kernel_basis(vectors, tags=tags)
    assert kernel == [{2: F(1), 0: F(-2), 1: F(-1)}]
    _assert_kernel(sympy, vectors, tags, kernel, 3)


def test_divisor_truncation_small_kernel():
    # x spans a one-dimensional ideal killed by the radical on both sides,
    # so the divisor algebra is a small extension of its quotient by x
    x = parse_monomial("x12*x24", 4)
    R = divisor_truncation(x, 4)
    assert [str(m) for m in R.basis] == ["e1", "e2", "e3", "e4",
                                         "x12", "x24", "x12*x24"]
    vec = {R.index[x]: F(1)}
    for r in R.radical_indices():
        unit = {r: F(1)}
        assert R.mult_coords(unit, vec) == {}
        assert R.mult_coords(vec, unit) == {}
    x12, x24 = (R.index[parse_monomial(name, 4)] for name in ("x12", "x24"))
    assert R.product(x12, x24) == vec
