"""Truncated quotients against the elimination builder they replaced.

The reference below is the construction ncdef used before it built
truncations from a Gröbner basis: it forms m * f * m' for every pair of free
monomials below the cutoff (leaving out the unit pair for tagged series,
which enter as f - tag), eliminates all those rows in one echelon under the
elimination order, and stores the class of every free monomial.  Both must
give the same basis, the same products and the same class of every monomial
below the cutoff, on the flagship's own truncations and on a seeded corpus
of random relation sets; the corpus must exercise each part of the
completion.
"""

import itertools
import random

import pytest

import ncdef.massey as massey
from ncdef import matrix_ring
from ncdef.linalg import Echelon
from ncdef.matrix_ring import (GeneratorTable, MatricPoly, Monomial, RelTag,
                               build_quotient, build_tagged_truncation, concat,
                               label_sort_key, monomials_of_degree)
from ncdef.presets import RunOptions


def _column(label):
    """The elimination column of a label, which it ends with: tags rank
    lowest, then monomials from the highest degree down."""
    if isinstance(label, RelTag):
        return (0, label)
    return (1, -label.degree, label.key(), label)


def _ideal_rows(table, relations, cutoff, exclude_unit):
    """Truncations of all products m * f * m' with some term below the cutoff."""
    rows = []
    for f in relations:
        fi, fj = f.type
        room = cutoff - 1 - f.min_degree()
        lefts = [[m for m in monomials_of_degree(table, d) if m.j == fi]
                 for d in range(room + 1)]
        rights = [[m for m in monomials_of_degree(table, d) if m.i == fj]
                  for d in range(room + 1)]
        for dl, dr in itertools.product(range(room + 1), repeat=2):
            if dl + dr > room or exclude_unit and dl + dr == 0:
                continue
            for ml, mr in itertools.product(lefts[dl], rights[dr]):
                row = {}
                for mono, c in f.terms.items():
                    full = concat(concat(ml, mono), mr)
                    if full.degree < cutoff:
                        row[full] = row.get(full, 0) + c
                row = {m: c for m, c in row.items() if c}
                if row:
                    rows.append(row)
    return rows


def reference_truncation(table, cutoff, relations=(), series=None):
    """(basis, products, class of every monomial) by eliminating all rows."""
    if series is not None:
        relations = series.values()
    relations = [f for f in relations if not f.is_zero()]
    rows = _ideal_rows(table, relations, cutoff, exclude_unit=series is not None)
    tags = []
    for tag in sorted(series or {}):
        vec = {m: c for m, c in series[tag].terms.items() if m.degree < cutoff}
        if vec:
            vec[tag] = -1
            rows.append(vec)
            tags.append(tag)
    elim = Echelon()
    for row in rows:
        elim.add({_column(m): c for m, c in row.items()})
    pivots = {col[-1] for col in elim.pivots()}
    monos = [m for d in range(cutoff) for m in monomials_of_degree(table, d)]
    basis = sorted([m for m in monos if m not in pivots]
                   + [t for t in tags if t not in pivots], key=label_sort_key)
    index = {b: k for k, b in enumerate(basis)}
    classes = {m: {index[col[-1]]: v for col, v in elim.reduce({_column(m): 1}).items()}
               for m in monos}
    starting = {}
    for b, lb in enumerate(basis):
        if isinstance(lb, Monomial):
            starting.setdefault(lb.i, []).append((b, lb))
    products = {}
    for a, la in enumerate(basis):
        for b, lb in starting.get(la.j, ()) if isinstance(la, Monomial) else ():
            if la.degree + lb.degree >= cutoff:
                break
            if classes[concat(la, lb)]:
                products[(a, b)] = classes[concat(la, lb)]
    return basis, products, classes


@pytest.fixture
def completions(monkeypatch):
    """Count the completion's S-polynomials and inclusion removals, and keep
    each completed basis."""
    seen = {"overlaps": 0, "removals": 0, "bases": []}
    cls = matrix_ring._StandardBasis
    complete, overlaps, remove = cls.complete, cls._overlaps, cls._remove

    def spy_complete(self, elements):
        seen["bases"].append(self)
        return complete(self, elements)

    def spy_overlaps(self, a, b):
        out = overlaps(self, a, b)
        seen["overlaps"] += len(out)
        return out

    def spy_remove(self, tip):
        seen["removals"] += 1
        return remove(self, tip)

    monkeypatch.setattr(cls, "complete", spy_complete)
    monkeypatch.setattr(cls, "_overlaps", spy_overlaps)
    monkeypatch.setattr(cls, "_remove", spy_remove)
    return seen


def assert_matches_reference(algebra, std, ref):
    basis, products, classes = ref
    assert algebra.basis == basis
    assert algebra.products == products
    for m, coords in classes.items():
        assert algebra.expansion(m) == coords, m
    # the basis is reduced: its tips are the minimal eliminated monomials
    # (multiples of eliminated ones are eliminated, so it is enough that
    # both maximal divisors survive), and no rest holds a tip or a pivot tag
    eliminated = {m for m in classes if m not in algebra.index}
    assert {std.monomial(tip) for tip in std.rules} == {
        m for m in eliminated
        if Monomial.from_arrows(m.arrows[1:]) not in eliminated
        and Monomial.from_arrows(m.arrows[:-1]) not in eliminated}
    for words, tags in std.rules.values():
        assert all(std._tip_in(w) is None for w in words)
        assert not set(tags) & set(std.tags.rows)


def _flagship_calls(weyl):
    """Arguments of every truncation the flagship builds up to order 9."""
    calls = []
    quotient, tagged = massey.build_quotient, massey.build_tagged_truncation

    def record_quotient(table, relations, cutoff):
        calls.append((table, cutoff, list(relations), None))
        return quotient(table, relations, cutoff)

    def record_tagged(table, series, cutoff):
        calls.append((table, cutoff, (), dict(series)))
        return tagged(table, series, cutoff)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(massey, "build_quotient", record_quotient)
        patch.setattr(massey, "build_tagged_truncation", record_tagged)
        massey.compute_hull(weyl.preset_basis,
                            RunOptions(max_order=9, stop_on_stabilized=False))
    return calls


def test_flagship_truncations_match_the_elimination_builder(weyl, completions):
    calls = _flagship_calls(weyl)
    assert sorted(c for _, c, _, s in calls if s is not None) == list(range(3, 11))

    for table, cutoff, relations, series in calls:
        if series is None:
            algebra = build_quotient(table, relations, cutoff)
        else:
            algebra = build_tagged_truncation(table, series, cutoff)
        assert_matches_reference(algebra, completions["bases"][-1],
                                 reference_truncation(table, cutoff, relations, series))


def _random_table(rng, vertices):
    if vertices == 1:
        return GeneratorTable(1, {(1, 1): rng.choice((2, 3))})
    return GeneratorTable(2, {(1, 1): rng.choice((0, 1)), (1, 2): rng.choice((1, 2)),
                              (2, 1): rng.choice((1, 2)), (2, 2): rng.choice((0, 1))})


def _of_type(table, degree, typ):
    return [m for m in monomials_of_degree(table, degree) if m.type == typ]


def _random_relation(rng, table, homogeneous):
    """Order 2 or 3; its higher terms one or two degrees above when inhomogeneous."""
    order = rng.choice((2, 3))
    typ = rng.choice(monomials_of_degree(table, order)).type
    degrees = [order] + [order if homogeneous else order + rng.randint(1, 2)
                         for _ in range(rng.randint(1, 3))]
    terms = {}
    for d in degrees:
        choices = _of_type(table, d, typ)
        if choices:
            terms[rng.choice(choices)] = rng.choice((-2, -1, 1, 2, 3))
    return MatricPoly(typ, terms)


def _dependent_relation(rng, table, f):
    """3 * f plus a multiple u * f * v by cycles at its ends, when there are any."""
    terms = {m: 3 * c for m, c in f.terms.items()}
    i, j = f.type
    lefts = _of_type(table, 1, (i, i)) + _of_type(table, 2, (i, i))
    rights = _of_type(table, 1, (j, j)) + _of_type(table, 2, (j, j))
    if lefts and rights and rng.random() < 0.7:
        u = rng.choice([Monomial.idempotent(i)] + lefts)
        v = rng.choice(rights)
        for m, c in f.terms.items():
            w = concat(concat(u, m), v)
            terms[w] = terms.get(w, 0) + c
    return MatricPoly(f.type, terms)


def test_random_truncations_match_the_elimination_builder(completions):
    cases = 0
    for seed, (vertices, homogeneous, cutoff) in enumerate(
            26 * list(itertools.product((1, 2), (True, False), (4, 5, 6)))):
        rng = random.Random(seed)
        table = _random_table(rng, vertices)
        relations = [_random_relation(rng, table, homogeneous)
                     for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            relations.append(_dependent_relation(rng, table, rng.choice(relations)))
        series = {}
        for f in relations:
            same = sum(tag.i == f.type[0] and tag.j == f.type[1] for tag in series)
            series[RelTag(f.type[0], f.type[1], same + 1)] = f
        algebra = build_quotient(table, relations, cutoff)
        assert_matches_reference(algebra, completions["bases"][-1],
                                 reference_truncation(table, cutoff, relations))
        algebra = build_tagged_truncation(table, series, cutoff)
        assert_matches_reference(algebra, completions["bases"][-1],
                                 reference_truncation(table, cutoff, series=series))
        cases += 1
    assert cases >= 300
    assert completions["overlaps"] and completions["removals"]
    assert any(std.tags.rows for std in completions["bases"])
