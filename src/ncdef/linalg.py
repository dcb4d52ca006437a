"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping hashable column labels to nonzero ints or
Fractions.  Scalars enter through ``exact``, which keeps an integral value
an int, so the small integers that make up most systems stay ints through
the elimination; a float is refused.

Column labels need not be integers; an Echelon is parametrized by a pivot
priority function so quotient constructions can steer which coordinates get
eliminated.

``Echelon`` holds the only row-reduction loop.  It updates its rows in
place and keeps an index from each non-pivot column to the rows that
contain it, so inserting a row touches only the rows holding its pivot,
and reducing a vector is one pass over the pivot columns it starts with.
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


def _add_multiple(vec, row, c, holders=None, owner=None):
    """vec += c * row in place; entries that cancel are removed.

    With ``holders`` (column -> set of rows containing it), record that the
    row ``owner`` now contains the columns that appeared in ``vec`` and no
    longer contains the ones that cancelled.
    """
    for k, v in row.items():
        old = vec.get(k)
        s = c * v if old is None else old + c * v
        if s:
            vec[k] = s
            if old is None and holders is not None:
                holders.setdefault(k, set()).add(owner)
        elif old is not None:
            del vec[k]
            if holders is not None:
                _forget(holders, k, owner)


def _forget(holders, col, owner):
    owners = holders[col]
    owners.discard(owner)
    if not owners:
        del holders[col]


class Echelon:
    """Reduced row echelon span with a configurable pivot priority.

    ``priority(col)`` returns a sortable key; within a row's support the
    column with the largest key becomes the pivot (the first such column of
    the reduced row on a tie).  Rows are normalized to pivot coefficient 1
    and fully reduced against each other, so for a priority that orders
    every column strictly, reduction against the echelon is canonical.  An
    augmented column pivots only when its priority is the largest left in
    the reduced row, i.e. when every real column in it has been eliminated.

    Because the rows are fully reduced, a pivot column occurs in its own row
    only, and subtracting a row from a vector changes no other pivot column.
    ``reduce`` therefore eliminates the pivot columns of its input in one
    pass, in the input's order.  ``add`` back-substitutes the new pivot
    only into the rows the private column index lists for it, and keeps the
    index (non-pivot column -> pivots of the rows containing it) current as
    entries appear and cancel.  ``rows`` is read-only outside this class;
    ``restrict`` drops rows.
    """

    def __init__(self, priority=None):
        self.priority = priority or (lambda col: col)
        self.rows = {}  # pivot col -> row vector
        self._holders = {}  # non-pivot col -> pivots of the rows containing it

    def reduce(self, vec):
        vec = dict(vec)
        rows = self.rows
        for col in [col for col in vec if col in rows]:
            _add_multiple(vec, rows[col], -vec[col])
        return vec

    def add(self, vec):
        """Insert a vector; returns its pivot column, or None if dependent."""
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = max(vec, key=self.priority)
        lead = vec[pivot]
        row = vec if lead == 1 else vec_scale(vec, Fraction(1, lead))
        holders = self._holders
        for p in tuple(holders.get(pivot, ())):
            other = self.rows[p]
            _add_multiple(other, row, -other[pivot], holders, p)
        self.rows[pivot] = row
        for col in row:
            if col != pivot:
                holders.setdefault(col, set()).add(pivot)
        return pivot

    def restrict(self, keep):
        """Drop the rows whose pivot fails ``keep``; the rest stay fully reduced."""
        for p in [p for p in self.rows if not keep(p)]:
            for col in self.rows.pop(p):
                if col != p:
                    _forget(self._holders, col, p)

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
    inconsistent.  The rows that pivot on a variable, restricted to the
    variables and the column of a consistent target, are then the reduced
    echelon form of that target's system alone, so each consistent target
    gets the solution a single-target solve returns; it depends only on the
    system, not on the order of its equations or on the other targets.
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
            # such a row later changes only by multiples of rows added the
            # same way, so the entries recorded here are all there will be
            inconsistent.update(col.index - len(variables) for col in ech.rows[pivot])
            if len(inconsistent) == targets:
                return [None] * targets
    # rows are fully reduced, so every non-pivot variable of a row is free
    # (value 0) and a consistent target's column holds the pivot's value
    solutions = [None if t in inconsistent else {} for t in range(targets)]
    live = [(sol, col) for sol, col in zip(solutions, columns) if sol is not None]
    rows = ech.rows
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
