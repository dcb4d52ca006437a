"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping hashable column labels to nonzero ints or
Fractions.  Scalars enter through ``exact``, which keeps an integral value
an int, so the small integers that make up most systems stay ints through
the elimination; a float is refused.

Column labels need not be integers; an Echelon is parametrized by a pivot
priority function so quotient constructions can steer which coordinates get
eliminated.

``Echelon`` holds the only row-reduction loop.  Its rows are write-once,
so reducing a vector eliminates its pivot columns highest first, each once,
and ``Echelon.reduced_rows`` back-substitutes once for the reader that
needs the reduced row echelon form.
``solve_sparse`` and ``kernel_basis`` run on it with augmented columns:
extra columns appended to every row (one per right-hand side, or the
combination of inputs that produced the row) that are equal only to
themselves, so no column label can collide with them, and that rank below
every real column, so they pivot only in a row whose real part has reduced
to zero.  ``solve_sparse`` carries all the right-hand sides of a system as
such columns through one elimination; a right-hand side is inconsistent
exactly when a row that pivots on an augmented column has an entry in its
column.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction


def exact(c):
    """``c`` as an int when its value is integral, else as a Fraction.

    Accepts ints, Fractions and the strings ``Fraction`` parses; a float
    raises TypeError, so an inexact quotient such as ``int / int`` cannot
    pass for a scalar.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError("inexact scalar %r" % (c,))
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def vec_scale(a, c):
    c = exact(c)
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def _add_multiple(vec, row, c):
    """vec += c * row in place; entries that cancel are removed."""
    for k, v in row.items():
        old = vec.get(k)
        s = c * v if old is None else old + c * v
        if s:
            vec[k] = s
        elif old is not None:
            del vec[k]


class Echelon:
    """Row echelon span with a configurable pivot priority.

    ``priority(col)`` returns a sortable key; within a reduced vector the
    column with the largest key becomes the pivot (the first such column on
    a tie).  Rows are write-once: ``add`` stores a vector reduced against
    the rows, with pivot coefficient 1, so no column of a row outranks its
    pivot, and no later ``add`` changes it.  ``reduce`` eliminates pivot
    columns highest first, since subtracting a row brings in none that
    ranks higher.  What is left holds no pivot column, so for a priority
    that orders every column strictly it depends only on the span.  An
    augmented column pivots only when its priority is the largest left in
    the reduced row, i.e. when every real column in it has been eliminated.
    """

    def __init__(self, priority=None):
        self.priority = priority or (lambda col: col)
        self.rows = {}  # pivot col -> row vector, read-only outside this class

    def reduce(self, vec):
        vec = dict(vec)
        rows, priority = self.rows, self.priority
        todo = sorted((col for col in vec if col in rows), key=priority)
        while todo:
            col = todo.pop()
            if col in vec:
                row = rows[col]
                for k in [k for k in row if k not in vec and k in rows]:
                    insort(todo, k, key=priority)
                _add_multiple(vec, row, -vec[col])
        return vec

    def add(self, vec):
        """Insert a vector; returns its pivot column, or None if dependent."""
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = max(vec, key=self.priority)
        lead = vec[pivot]
        self.rows[pivot] = vec if lead == 1 else vec_scale(vec, Fraction(1, lead))
        return pivot

    def reduced_rows(self):
        """{pivot: row} of the reduced row echelon form, lowest pivot first:
        a row holds only pivots of later rows that rank no higher, so one
        pass each, lowest first (later first on a tie), reduces the rows."""
        out = {}
        for pivot in sorted(reversed(self.rows), key=self.priority):
            row = dict(self.rows[pivot])
            for col in [col for col in row if col in out]:
                _add_multiple(row, out[col], -row[col])
            out[pivot] = row
        return out

    def pivots(self):
        return set(self.rows)


class _Augmented:
    """An augmented column: hashed by identity, so equal to no column label."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


def solve_sparse(equations, targets):
    """Solve one sparse linear system for ``targets`` right-hand sides at once.

    ``equations`` are (coeff_vec, rhs) pairs, where ``rhs`` maps a target
    index in range(targets) to that target's right-hand side (an absent
    index is 0).  Returns one entry per target: a dict of variable -> int
    or Fraction in sorted variable order with free variables omitted
    (treated as 0), or None when that target's system is inconsistent.

    Target t rides in every row as its own augmented column, ranked below
    every variable and below the columns of the targets before it, and the
    least variable of a row pivots.  A row that pivots on an augmented
    column has no variable left: it is a combination of the equations whose
    left-hand sides cancel, so every target with an entry in it is
    inconsistent.  Reduced, the rows that pivot on a variable, restricted
    to the variables and the column of a consistent target, are the
    reduced echelon form of that target's system alone, so each consistent
    target gets the solution a single-target solve returns; it depends only
    on the system, not on the order of its equations or on the other targets.
    """
    variables = sorted({var for vec, _ in equations for var in vec})
    columns = [_Augmented(len(variables) + t) for t in range(targets)]
    priority = {var: -k for k, var in enumerate(variables)}
    priority.update((col, -col.index) for col in columns)
    ech = Echelon(priority=priority.__getitem__)
    inconsistent = set()
    for vec, rhs in equations:
        row = dict(vec)
        for t, value in rhs.items():
            if value:
                row[columns[t]] = exact(value)
        pivot = ech.add(row)
        if type(pivot) is _Augmented:
            # a stored row never changes, so its entries are all there will be
            inconsistent.update(col.index - len(variables) for col in ech.rows[pivot])
            if len(inconsistent) == targets:
                return [None] * targets
    # in the reduced rows every non-pivot variable of a row is free (value
    # 0) and a consistent target's column holds the pivot's value
    solutions = [None if t in inconsistent else {} for t in range(targets)]
    live = [(sol, col) for sol, col in zip(solutions, columns) if sol is not None]
    rows = ech.reduced_rows()
    for var in variables:
        row = rows.get(var)
        if row is not None:
            for sol, col in live:
                if col in row:
                    sol[var] = row[col]
    return solutions


def kernel_basis(vectors, tags):
    """The linear relations among ``vectors``, yielded one by one.

    Vector k carries one augmented column, of coefficient 1, that ranks
    below every real column and above the augmented columns of the vectors
    before it.  A vector that reduces into the span of the earlier ones
    therefore pivots on its own augmented column, and its augmented part is
    the unique relation expressing it over the earlier independent vectors,
    over ``tags``, one per vector.  Each relation is yielded as soon as its
    vector is added, so a caller that stops early leaves the later vectors
    uneliminated.  Deterministic.
    """
    real = len(vectors)
    ech = Echelon(priority=lambda c: c.index if type(c) is _Augmented else real)
    for k, vec in enumerate(vectors):
        pivot = ech.add({**vec, _Augmented(k): 1})
        if type(pivot) is _Augmented:
            yield {tags[c.index]: v for c, v in ech.rows[pivot].items()}
