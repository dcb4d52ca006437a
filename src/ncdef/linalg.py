"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping hashable column labels to nonzero Fractions.
Column labels need not be integers; an Echelon is parametrized by a pivot
priority function so quotient constructions can steer which coordinates get
eliminated.
"""

from __future__ import annotations

from fractions import Fraction


def vec_add(a, b, c=Fraction(1)):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


class Echelon:
    """Reduced row echelon span with a configurable pivot priority.

    ``priority(col)`` returns a sortable key; within a row's support the
    column with the largest key becomes the pivot.  Rows are normalized to
    pivot coefficient 1 and fully reduced against each other, so reduction
    against the echelon is canonical for a fixed priority.
    """

    def __init__(self, priority=None):
        self.priority = priority or (lambda col: col)
        self.rows = {}  # pivot col -> row vector

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
            vec = vec_add(vec, self.rows[hit], -vec[hit])

    def add(self, vec):
        """Insert a vector; returns its pivot column, or None if dependent."""
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = max(vec, key=self.priority)
        row = vec_scale(vec, Fraction(1) / vec[pivot])
        for p, other in self.rows.items():
            if pivot in other:
                self.rows[p] = vec_add(other, row, -other[pivot])
        self.rows[pivot] = row
        return pivot

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return set(self.rows)


def solve_sparse(equations):
    """Solve a sparse linear system given as (coeff_vec, rhs) pairs.

    Returns a dict of variable -> Fraction with free variables omitted
    (treated as 0), or None when inconsistent.  Deterministic: equations are
    consumed in the given order and pivots are the smallest variable key in
    the reduced support.
    """
    rows = {}  # pivot var -> (vec, rhs)
    for vec, rhs in equations:
        vec = dict(vec)
        rhs = Fraction(rhs)
        while True:
            hit = None
            for var in vec:
                if var in rows:
                    hit = var
                    break
            if hit is None:
                break
            pvec, prhs = rows[hit]
            c = vec[hit]
            vec = vec_add(vec, pvec, -c)
            rhs -= c * prhs
        if not vec:
            if rhs:
                return None
            continue
        pivot = min(vec)
        inv = Fraction(1) / vec[pivot]
        vec = vec_scale(vec, inv)
        rhs *= inv
        for p, (other, orhs) in list(rows.items()):
            if pivot in other:
                c = other[pivot]
                rows[p] = (vec_add(other, vec, -c), orhs - c * rhs)
        rows[pivot] = (vec, rhs)
    solution = {}
    for pivot in sorted(rows):
        vec, rhs = rows[pivot]
        val = rhs - sum(c * solution.get(v, Fraction(0))
                        for v, c in vec.items() if v != pivot)
        if val:
            solution[pivot] = val
    # one back-substitution pass suffices: rows are fully reduced, so every
    # non-pivot entry refers to a free variable (value 0)
    return solution


def kernel_basis(vectors, tags=None):
    """Basis of linear relations among ``vectors``.

    Feeds each vector into an echelon while tracking the combination that
    produced it; vectors that reduce to zero yield kernel elements expressed
    over ``tags`` (defaults to list indices).  Deterministic.
    """
    if tags is None:
        tags = list(range(len(vectors)))
    ech = {}  # pivot -> (vec, comb)
    kernel = []
    for tag, vec in zip(tags, vectors):
        vec = dict(vec)
        comb = {tag: Fraction(1)}
        while True:
            hit = None
            for col in vec:
                if col in ech:
                    hit = col
                    break
            if hit is None:
                break
            pvec, pcomb = ech[hit]
            c = vec[hit]
            vec = vec_add(vec, pvec, -c)
            comb = vec_add(comb, pcomb, -c)
        if not vec:
            kernel.append(comb)
            continue
        pivot = min(vec, key=_prio)
        inv = Fraction(1) / vec[pivot]
        ech[pivot] = (vec_scale(vec, inv), vec_scale(comb, inv))
    return kernel


def _prio(col):
    # total order for heterogeneous labels
    return (repr(type(col)), repr(col))
