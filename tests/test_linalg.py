import itertools
import random
from fractions import Fraction

import pytest

from ncdef.linalg import Echelon, _Augmented, exact, kernel_basis, solve_sparse, vec_scale
from ncdef.matrix_ring import divisor_truncation, parse_monomial


def F(n, d=1):
    return Fraction(n, d)


def _vec_add(a, b, c=Fraction(1)):
    """a + c * b as a new vector; entries that cancel are dropped."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def test_echelon_rank_and_reduce():
    ech = Echelon(priority=lambda c: c)
    assert ech.add({0: F(2), 1: F(2)}) is not None
    assert ech.add({0: F(1), 1: F(1)}) is None
    assert ech.add({1: F(1)}) is not None
    assert len(ech.rows) == 2
    assert ech.reduce({0: F(3), 1: F(5)}) == {}


def test_echelon_priority_steers_pivot():
    ech = Echelon(priority=lambda c: -c)  # prefer small column labels
    pivot = ech.add({0: F(1), 5: F(7)})
    assert pivot == 0


def test_exact_keeps_integral_values_as_ints():
    assert type(exact(7)) is int and exact(7) == 7
    two = exact(Fraction(4, 2))
    assert type(two) is int and two == 2
    half = exact(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(exact(True)) is int
    assert exact("-6/4") == Fraction(-3, 2) and type(exact("6/3")) is int
    for value in (0.5, 2.0, 1 / 2):
        with pytest.raises(TypeError):
            exact(value)
    with pytest.raises(TypeError):
        vec_scale({0: 1}, 0.5)


def test_echelon_keeps_a_unit_pivot_row_as_given():
    ech = Echelon()
    ech.add({0: 2, 1: 1})
    assert list(ech.rows[1].items()) == [(0, 2), (1, 1)]
    assert all(type(c) is int for c in ech.rows[1].values())
    ech.add({0: 3})
    # the stored row stays as given; the reduced rows back-substitute
    assert ech.rows == {1: {0: 2, 1: 1}, 0: {0: 1}}
    assert ech.reduced_rows() == {1: {1: 1}, 0: {0: 1}}


def _typed(entries):
    """An int-only and a mixed int/Fraction copy of drawn (value, as_fraction)
    entries, zeros dropped."""
    ints = {k: v for k, (v, _) in entries.items() if v}
    mixed = {k: Fraction(v) if wrap else v for k, (v, wrap) in entries.items() if v}
    return ints, mixed


def _items(vec):
    return None if vec is None else list(vec.items())


def _assert_scalars(vectors):
    for vec in vectors:
        for c in (vec or {}).values():
            assert type(c) in (int, Fraction), c


def test_int_and_fraction_entries_eliminate_alike():
    """Echelon rows, solve_sparse solutions and kernel_basis relations are
    equal, dict order included, whether each entry is an int or a Fraction."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.tuples(st.integers(-3, 3), st.booleans())

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(lambda nvars: st.tuples(
        st.just(nvars),
        st.lists(st.tuples(st.dictionaries(st.integers(0, nvars - 1), entry, max_size=4),
                           st.dictionaries(st.integers(0, 2), entry, max_size=3)),
                 min_size=1, max_size=6))))
    def check(args):
        nvars, rows = args
        sides = [[], []]
        for coeffs, rhs in rows:
            for side, vec, target in zip(sides, _typed(coeffs), _typed(rhs)):
                side.append(({("x", v): c for v, c in vec.items()}, target))
        results = []
        for equations in sides:
            ech = Echelon()
            pivots = [ech.add(vec) for vec, _ in equations]
            rows_out = [(p, _items(r)) for p, r in ech.rows.items()]
            solutions = solve_sparse(equations, 3)
            vectors = [vec for vec, _ in equations]
            kernel = list(kernel_basis(vectors, tags=list(range(len(vectors)))))
            _assert_scalars(list(ech.rows.values()) + solutions + kernel)
            results.append((pivots, rows_out, [_items(s) for s in solutions],
                            [_items(r) for r in kernel]))
        assert results[0] == results[1]

    check()


def test_solve_sparse_consistent():
    # x + y = 3, x - y = 1
    sol, = solve_sparse([({"x": F(1), "y": F(1)}, {0: F(3)}),
                         ({"x": F(1), "y": F(-1)}, {0: F(1)})], 1)
    assert sol == {"x": F(2), "y": F(1)}


def test_solve_sparse_underdetermined_free_vars_zero():
    sol, = solve_sparse([({"x": F(1), "y": F(2)}, {0: F(4)})], 1)
    assert sol is not None
    assert sol.get("x", F(0)) + 2 * sol.get("y", F(0)) == F(4)


def test_solve_sparse_inconsistent():
    assert solve_sparse([({"x": F(1)}, {0: F(1)}), ({"x": F(1)}, {0: F(2)})], 1) == [None]


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


def _solve_one(rows):
    """Solve (coeff_vec, rhs) rows with a scalar rhs as a batch of one."""
    (sol,) = solve_sparse([(vec, {0: rhs}) for vec, rhs in rows], 1)
    return sol


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
        sol = _solve_one(rows)
        assert (sol is not None) == consistent
        outcomes.add(consistent)
        if sol is not None:
            for vec, rhs in rows:
                assert sum(c * sol.get(v, 0) for v, c in vec.items()) == rhs
        for perm in itertools.permutations(rows):
            other = _solve_one(list(perm))
            assert other == sol
            assert other is None or list(other.items()) == list(sol.items())
    assert outcomes == {True, False}


def _batch(rows, rhs_columns):
    """The coefficients of ``rows``; target t has the right-hand sides rhs_columns[t]."""
    return [(vec, {t: col[k] for t, col in enumerate(rhs_columns) if col[k]})
            for k, (vec, _) in enumerate(rows)]


def _check_batch(rows, rhs_columns):
    """Solve rows for every right-hand side column at once and one at a time."""
    batch = solve_sparse(_batch(rows, rhs_columns), len(rhs_columns))
    assert len(batch) == len(rhs_columns)
    for col, sol in zip(rhs_columns, batch):
        single = _solve_one([(vec, rhs) for (vec, _), rhs in zip(rows, col)])
        assert sol == single
        assert sol is None or list(sol.items()) == list(single.items())
    return batch


def test_solve_sparse_several_targets_against_single_solves_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    outcomes = []
    for _ in range(60):
        nvars, rows = _random_system(rng)
        names = [("x", v) for v in range(nvars)]
        A = sympy.Matrix([[sympy.Rational(vec.get(v, 0)) for v in names]
                          for vec, _ in rows])
        # the system's own rhs, a zero target, a random one and one built to
        # be consistent from a random solution
        point = {v: F(rng.randint(-3, 3)) for v in names}
        columns = [[rhs for _, rhs in rows], [F(0)] * len(rows),
                   [F(rng.randint(-2, 2)) for _ in rows],
                   [sum(c * point[v] for v, c in vec.items()) for vec, _ in rows]]
        batch = _check_batch(rows, columns)
        for col, sol in zip(columns, batch):
            b = sympy.Matrix([sympy.Rational(r) for r in col])
            assert (sol is not None) == (A.rank() == A.row_join(b).rank())
        assert batch[1] == {} and batch[3] is not None
        outcomes.append(tuple(sol is None for sol in batch))
    assert {o[0] for o in outcomes} == {True, False}
    assert {o[2] for o in outcomes} == {True, False}


def test_solve_sparse_mixed_zero_and_coefficient_free_targets():
    x, y = ("x", 0), ("x", 1)
    equations = [({x: F(1), y: F(1)}, {0: F(3), 2: F(1)}),
                 ({x: F(1), y: F(-1)}, {0: F(1)}),
                 ({}, {2: F(5)}),          # 0 = 5 for target 2 only
                 ({x: F(2), y: F(2)}, {0: F(6), 3: F(1)})]
    assert solve_sparse(equations, 5) == [
        {x: F(2), y: F(1)},   # consistent
        {},                   # zero target: the zero solution
        None,                 # only the coefficient-free equation rules it out
        None,                 # x + y = 0 and 2x + 2y = 1
        {}]                   # never mentioned: a zero target
    assert solve_sparse(equations, 4)[:2] == solve_sparse(equations, 5)[:2]
    assert solve_sparse([({}, {0: F(1)})], 1) == [None]
    assert solve_sparse([({x: F(1)}, {})], 0) == []
    assert solve_sparse([], 2) == [{}, {}]


def test_solve_sparse_batch_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(lambda nvars: st.tuples(
        st.just(nvars),
        st.lists(st.dictionaries(st.integers(0, nvars - 1), small, max_size=3),
                 min_size=1, max_size=5),
        st.integers(1, 3), st.data())))
    def check(args):
        nvars, vecs, targets, data = args
        vecs = [{("x", v): c for v, c in vec.items() if c} for vec in vecs]
        columns = [data.draw(st.lists(small, min_size=len(vecs), max_size=len(vecs)))
                   for _ in range(targets)]
        rows = [(vec, F(0)) for vec in vecs]
        batch = _check_batch(rows, columns)
        names = [("x", v) for v in range(nvars)]
        A = sympy.Matrix([[sympy.Rational(vec.get(v, 0)) for v in names]
                          for vec in vecs])
        for col, sol in zip(columns, batch):
            b = sympy.Matrix([sympy.Rational(r) for r in col])
            assert (sol is not None) == (A.rank() == A.row_join(b).rank())
            if sol is not None:
                for vec, rhs in zip(vecs, col):
                    assert sum(c * sol.get(v, 0) for v, c in vec.items()) == rhs

    check()


def test_kernel_basis():
    vectors = [{0: F(1)}, {0: F(2)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    kernel = list(kernel_basis(vectors, tags=["a", "b", "c", "d"]))
    assert len(kernel) == 2
    for combo in kernel:
        total = {}
        names = {"a": vectors[0], "b": vectors[1], "c": vectors[2],
                 "d": vectors[3]}
        for tag, coeff in combo.items():
            total = _vec_add(total, names[tag], coeff)
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
        assert len(ech.rows) == A.rank()
        probes = _random_vectors(rng, ncols)
        combo = {}
        for vec in vectors:
            combo = _vec_add(combo, vec, F(rng.randint(-2, 2)))
        for v in probes + [combo]:
            in_span = A.col_join(_sympy_matrix(sympy, [v], ncols)).rank() == A.rank()
            assert (ech.reduce(v) == {}) == in_span


def _assert_kernel(sympy, vectors, tags, kernel, ncols):
    by_tag = dict(zip(tags, vectors))
    for relation in kernel:
        total = {}
        for tag, coeff in relation.items():
            total = _vec_add(total, by_tag[tag], coeff)
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
        _assert_kernel(sympy, vectors, tags, list(kernel_basis(vectors, tags=tags)), ncols)


def test_kernel_basis_tags_never_meet_column_labels():
    # the tags are the column labels themselves: the combination a relation
    # carries must stay apart from the columns of the vectors
    sympy = pytest.importorskip("sympy")
    vectors = [{0: F(1), 1: F(2)}, {1: F(1)}, {0: F(2), 1: F(5)}, {2: F(3)}]
    tags = [0, 1, 2, 3]
    kernel = list(kernel_basis(vectors, tags=tags))
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
    for r, label in enumerate(R.basis):
        if label.degree:
            assert R.product(r, R.index[x]) == {}
            assert R.product(R.index[x], r) == {}
    x12, x24 = (R.index[parse_monomial(name, 4)] for name in ("x12", "x24"))
    assert R.product(x12, x24) == vec


class _ReferenceEchelon:
    """A fully reduced echelon that copies dicts: every reduction rescans the
    vector from the start, and every insertion back-substitutes its pivot
    into every stored row."""

    def __init__(self, priority):
        self.priority = priority
        self.rows = {}

    def reduce(self, vec):
        vec = dict(vec)
        while True:
            hit = None
            for col in vec:
                if col in self.rows:
                    hit = col
                    break
            if hit is None:
                return vec
            vec = _vec_add(vec, self.rows[hit], -vec[hit])

    def add(self, vec):
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = max(vec, key=self.priority)
        row = {k: v / vec[pivot] for k, v in vec.items()}
        for p, other in self.rows.items():
            if pivot in other:
                self.rows[p] = _vec_add(other, row, -other[pivot])
        self.rows[pivot] = row
        return pivot


def _tied_priority(col):
    # pairs of real columns tie, and augmented columns rank below them all
    if type(col) is _Augmented:
        return (0, -col.index)
    return (1, col // 2)


def _random_operations(rng):
    """(kind, vector) pairs over tied real columns and augmented columns.

    Roughly a third of the vectors combine earlier ones, so they reduce to
    zero, and back-substitution cancels entries of the reduced rows."""
    ncols = rng.randint(2, 9)
    augmented = [_Augmented(k) for k in range(rng.randint(0, 3))]
    columns = list(range(ncols)) + augmented
    made = []
    for _ in range(rng.randint(1, 14)):
        if made and rng.random() < 0.35:
            a, b = rng.choice(made), rng.choice(made)
            ca, cb = F(rng.randint(-2, 2)), F(rng.randint(-3, 3), rng.randint(1, 2))
            vec = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in list(a) + list(b)}
            vec = {c: x for c, x in vec.items() if x}
        else:
            support = rng.sample(columns, rng.randint(1, min(4, len(columns))))
            vec = {c: F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)) for c in support}
        made.append(vec)
        yield ("reduce" if rng.random() < 0.3 else "add"), vec


def _assert_same(ech, ref):
    # the same pivots and the same reduced rows
    assert ech.reduced_rows() == ref.rows


def _assert_same_span(ech, ref):
    # on a tie the pivot depends on the order of the reduced vector's
    # entries, so only the span and the priorities of the pivots must agree
    priority = ech.priority
    assert sorted(map(priority, ech.rows)) == sorted(map(priority, ref.rows))
    assert all(not ech.reduce(row) for row in ref.rows.values())
    assert all(not ref.reduce(row) for row in ech.rows.values())
    reduced = ech.reduced_rows()
    assert reduced.keys() == ech.rows.keys()
    assert all(row[p] == 1 and not any(col in reduced for col in row if col != p)
               for p, row in reduced.items())


@pytest.mark.parametrize("priority", [_tied_priority, lambda c: (
    (0, c.index) if type(c) is _Augmented else (1, -c))])
def test_echelon_matches_reference_kernel(priority):
    rng = random.Random(7301)
    tied = priority is _tied_priority
    kinds = set()
    for _ in range(300):
        ech, ref = Echelon(priority=priority), _ReferenceEchelon(priority)
        for kind, vec in _random_operations(rng):
            if kind == "add":
                pivot, want = ech.add(vec), ref.add(vec)
                if tied:
                    assert (pivot is None) == (want is None)
                    _assert_same_span(ech, ref)
                else:
                    assert pivot == want
                    _assert_same(ech, ref)
                kinds.add("dependent" if pivot is None else type(pivot).__name__)
                for p, row in ech.rows.items():
                    assert row[p] == 1
                    assert not any(priority(col) > priority(p) for col in row)
            elif tied:
                assert (not ech.reduce(vec)) == (not ref.reduce(vec))
            else:
                assert ech.reduce(vec) == ref.reduce(vec)
    assert kinds == {"dependent", "int", "_Augmented"}


def test_stored_rows_never_change():
    # a row is stored once, reduced against the rows before it, and later
    # additions leave it as it was: it holds no pivot of an earlier row
    rng = random.Random(7302)
    changed_later = 0
    for _ in range(200):
        ech = Echelon(priority=_tied_priority)
        stored = {}
        for kind, vec in _random_operations(rng):
            if kind != "add":
                continue
            before = list(ech.rows)
            pivot = ech.add(vec)
            if pivot is not None:
                stored[pivot] = (ech.rows[pivot], dict(ech.rows[pivot]))
                assert not any(col in ech.rows[pivot] for col in before)
            for p, (row, copy) in stored.items():
                assert ech.rows[p] is row and row == copy
        reduced = ech.reduced_rows()
        changed_later += sum(1 for p in ech.rows if ech.rows[p] != reduced[p])
    # some rows hold pivots added after them, which only the reduced rows drop
    assert changed_later > 0


@pytest.mark.parametrize("priority", [lambda c: c, lambda c: -c])
def test_reduced_rows_are_sympy_rref_and_reduce_ignores_the_order_added(priority):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7303)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        vectors = _random_vectors(rng, ncols)
        ech = Echelon(priority=priority)
        for vec in vectors:
            ech.add(vec)
        # sympy's rref pivots on the leftmost column: list the columns by
        # descending priority
        order = sorted(range(ncols), key=priority, reverse=True)
        rref, pivots = sympy.Matrix(len(vectors), ncols, lambda r, c: sympy.Rational(
            vectors[r].get(order[c], 0))).rref()
        want = {order[c]: {order[k]: F(int(x.p), int(x.q))
                           for k, x in enumerate(rref.row(r)) if x}
                for r, c in enumerate(pivots)}
        assert ech.reduced_rows() == want
        shuffled = Echelon(priority=priority)
        for vec in rng.sample(vectors, len(vectors)):
            shuffled.add(vec)
        assert shuffled.pivots() == ech.pivots()
        assert shuffled.reduced_rows() == want
        for probe in _random_vectors(rng, ncols):
            assert shuffled.reduce(probe) == ech.reduce(probe)
