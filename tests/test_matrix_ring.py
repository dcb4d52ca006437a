import itertools
import random
from fractions import Fraction

import pytest

from ncdef.errors import InternalInvariantError, ValidationError
from ncdef.matrix_ring import (GeneratorTable, MatricPoly, Monomial, RelTag,
                               arrow_key, build_quotient, build_tagged_truncation,
                               concat, divisor_truncation, format_monomial,
                               monomials_of_degree, parse_monomial,
                               quotient_by_vectors)


@pytest.fixture(scope="module")
def weyl_table():
    pairs = [(1, 2), (1, 3), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]
    rels = [(1, 4), (2, 3), (3, 2), (4, 1)]
    return GeneratorTable(4, {p: 1 for p in pairs}, {p: 1 for p in rels})


def relation_series(weyl_table):
    def mono(text):
        return parse_monomial(text, 4)

    return {
        RelTag(1, 4, 1): MatricPoly((1, 4), {mono("x13*x34"): 1, mono("x12*x24"): -1}),
        RelTag(2, 3, 1): MatricPoly((2, 3), {mono("x24*x43"): 1, mono("x21*x13"): -1}),
        RelTag(3, 2, 1): MatricPoly((3, 2), {mono("x31*x12"): 1, mono("x34*x42"): -1}),
        RelTag(4, 1, 1): MatricPoly((4, 1), {mono("x42*x21"): 1, mono("x43*x31"): -1}),
    }


def test_monomials_of_degree_type(weyl_table):
    found = [m for m in monomials_of_degree(weyl_table, 2) if m.type == (1, 4)]
    assert [format_monomial(m) for m in found] == ["x12*x24", "x13*x34"]


def test_monomials_degree_zero(weyl_table):
    assert [format_monomial(m) for m in monomials_of_degree(weyl_table, 0)] == \
        ["e1", "e2", "e3", "e4"]


def test_monomials_free_two_loops():
    table = GeneratorTable(1, {(1, 1): 2})
    assert len(monomials_of_degree(table, 2)) == 4


def _tables(weyl_table):
    """The flagship table, the poly3 point's three loops, and two copies of
    the point of k[x, y]: two arrows between every pair of vertices."""
    return [weyl_table, GeneratorTable(1, {(1, 1): 3}, {(1, 1): 3}),
            GeneratorTable(2, {(i, j): 2 for i in (1, 2) for j in (1, 2)})]


def test_table_numbers_arrows_in_key_order(weyl_table):
    for table in _tables(weyl_table):
        # the arrows source by source, each source's sorted by key
        by_source = [a for i in range(1, table.p + 1) for a in sorted(
            ((i, j, l) for j in range(1, table.p + 1)
             for l in range(1, table.d.get((i, j), 0) + 1)), key=arrow_key)]
        assert table.arrows == sorted(by_source, key=arrow_key) == by_source
        assert table.all_arrows() == table.arrows
        assert table.number == {a: k for k, a in enumerate(table.arrows)}
        assert table.after == [[k for k, b in enumerate(table.arrows) if b[0] == a[1]]
                               for a in table.arrows]


@pytest.mark.parametrize("degree", range(7))
def test_monomials_of_degree_is_every_composable_word_in_key_order(weyl_table, degree):
    for table in _tables(weyl_table):
        words = [w for w in itertools.product(table.arrows, repeat=degree)
                 if all(a[1] == b[0] for a, b in zip(w, w[1:]))]
        expected = sorted((Monomial.from_arrows(w) for w in words), key=Monomial.key) \
            if degree else [Monomial.idempotent(i) for i in range(1, table.p + 1)]
        assert monomials_of_degree(table, degree) == expected


def test_concat():
    x12 = parse_monomial("x12", 4)
    x24 = parse_monomial("x24", 4)
    assert format_monomial(concat(x12, x24)) == "x12*x24"
    assert concat(Monomial.idempotent(1), x12) == x12
    assert concat(x12, parse_monomial("x13", 4)) is None


def test_divisors():
    x = parse_monomial("x12*x24*x43", 4)
    names = [format_monomial(m) for m in divisor_truncation(x, 4).monomial_basis()
             if m.degree]
    assert names == ["x12", "x24", "x43", "x12*x24", "x24*x43", "x12*x24*x43"]


def test_build_quotient_flagship_basis(weyl_table):
    rels = list(relation_series(weyl_table).values())
    alg = build_quotient(weyl_table, rels, 3)
    deg2 = {format_monomial(m) for m in alg.basis_of_degree(2)}
    all2 = {format_monomial(m) for m in monomials_of_degree(weyl_table, 2)}
    assert all2 - deg2 == {"x13*x34", "x24*x43", "x31*x12", "x42*x21"}
    # eliminated monomial expands onto its partner with coefficient 1
    exp = alg.expansion(parse_monomial("x13*x34", 4))
    assert exp == {alg.index[parse_monomial("x12*x24", 4)]: Fraction(1)}


def test_build_quotient_no_relations(weyl_table):
    alg = build_quotient(weyl_table, [], 3)
    expected = sum(len(monomials_of_degree(weyl_table, d)) for d in range(3))
    assert alg.dim == expected


def test_build_quotient_single_loop():
    table = GeneratorTable(1, {(1, 1): 1})
    t = Monomial.from_arrows([(1, 1, 1)])
    square = MatricPoly((1, 1), {concat(t, t): 1})
    alg = build_quotient(table, [square], 5)
    assert [format_monomial(m) for m in alg.basis] == ["e1", "x11"]


def test_build_quotient_rejects_low_order(weyl_table):
    bad = MatricPoly((1, 2), {parse_monomial("x12", 4): 1})
    with pytest.raises(ValidationError):
        build_quotient(weyl_table, [bad], 3)


def test_block_relations(weyl_table):
    alg = build_quotient(weyl_table, [], 3)
    for a, la in enumerate(alg.basis):
        for b, lb in enumerate(alg.basis):
            prod = alg.product(a, b)
            if la.j != lb.i:
                assert prod == {}
            for idx in prod:
                assert alg.basis[idx].type == (la.i, lb.j)


def _multiply(alg, u, v):
    """Product of two index-coordinate vectors of a truncation."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            for c, cc in alg.product(a, b).items():
                out[c] = out.get(c, Fraction(0)) + ca * cb * cc
    return {c: v for c, v in out.items() if v}


def test_radical_nilpotency(weyl_table):
    rels = list(relation_series(weyl_table).values())
    for cutoff in (2, 3, 4):
        alg = build_quotient(weyl_table, rels, cutoff)
        # R^cutoff = 0: every product of cutoff radical basis vectors vanishes
        rad = [{k: Fraction(1)} for k, b in enumerate(alg.basis) if b.degree]
        power = rad
        for _ in range(cutoff - 1):
            power = [w for u in power for v in rad if (w := _multiply(alg, u, v))]
        assert not power


def test_expansion_of_basis_is_unit(weyl_table):
    alg = build_quotient(weyl_table, list(relation_series(weyl_table).values()), 3)
    for label in alg.monomial_basis():
        assert alg.expansion(label) == {alg.index[label]: Fraction(1)}


def test_tagged_truncation(weyl_table):
    series = relation_series(weyl_table)
    ring = build_tagged_truncation(weyl_table, series, 4)
    tags = ring.tags()
    assert len(tags) == 4
    deg2 = {format_monomial(m) for m in ring.basis_of_degree(2)}
    assert "x13*x34" not in deg2 and "x12*x24" in deg2
    # the eliminated monomial expands over its tag plus the partner
    exp = ring.expansion(parse_monomial("x13*x34", 4))
    by_label = {ring.basis[k]: c for k, c in exp.items()}
    assert by_label == {RelTag(1, 4, 1): Fraction(1),
                        parse_monomial("x12*x24", 4): Fraction(1)}
    # degree-3 basis monomials keep a surviving length-2 divisor
    deg2_set = set(ring.basis_of_degree(2))
    for m in ring.basis_of_degree(3):
        faces = [Monomial.from_arrows(m.arrows[:-1]),
                 Monomial.from_arrows(m.arrows[1:])]
        assert any(f in deg2_set for f in faces)


def test_truncation_ignores_relation_order(weyl_table):
    # the flagship's bookkeeping ring at order 5 (cutoff 6), and the quotient
    # by its relations with an inhomogeneous combination of one added
    series = relation_series(weyl_table)
    f = series[RelTag(1, 4, 1)]
    cycle = parse_monomial("x12*x21", 4)
    extra = {m: 2 * c for m, c in f.terms.items()}
    extra.update((concat(cycle, m), c) for m, c in f.terms.items())
    relations = list(series.values()) + [MatricPoly(f.type, extra)]
    results = []
    for seed in range(3):
        rng = random.Random(seed)
        tags = sorted(series)
        rng.shuffle(tags)
        rng.shuffle(relations)
        ring = build_tagged_truncation(weyl_table, {t: series[t] for t in tags}, 6)
        alg = build_quotient(weyl_table, relations, 6)
        results.append([(a.basis, a.products) for a in (ring, alg)])
    assert len(results[0][0][0]) == len(results[0][1][0]) + 4
    assert results[1] == results[0]
    assert results[2] == results[0]


def _flagship_truncations(weyl_table):
    """Bookkeeping rings of the flagship hull steps at orders 2 through 7."""
    zero = {tag: MatricPoly((tag.i, tag.j)) for tag in weyl_table.rel_tags()}
    yield build_tagged_truncation(weyl_table, zero, 3)
    for order in range(3, 8):
        yield build_tagged_truncation(weyl_table, relation_series(weyl_table),
                                      order + 1)


def _random_truncations():
    """Quotients and bookkeeping rings of seeded random relation sets.

    One vertex with 2 or 3 loops; each relation has order >= 2, and is
    homogeneous, or has its higher terms one or two degrees above its order.
    """
    for seed, (loops, homogeneous, cutoff) in enumerate(
            itertools.product((2, 3), (True, False), (4, 5, 6))):
        rng = random.Random(seed)
        table = GeneratorTable(1, {(1, 1): loops})
        relations = []
        for _ in range(rng.randint(1, 3)):
            order = rng.choice((2, 3))
            degrees = [order] + [order if homogeneous else order + rng.randint(1, 2)
                                 for _ in range(rng.randint(1, 3))]
            relations.append(MatricPoly((1, 1), {
                rng.choice(monomials_of_degree(table, d)): rng.choice((-2, -1, 1, 3))
                for d in degrees}))
        yield build_quotient(table, relations, cutoff)
        tagged = GeneratorTable(1, {(1, 1): loops}, {(1, 1): len(relations)})
        series = {RelTag(1, 1, l): f for l, f in enumerate(relations, start=1)}
        yield build_tagged_truncation(tagged, series, cutoff)


def test_truncation_bases_closed_under_divisors(weyl_table):
    rings = itertools.chain(_flagship_truncations(weyl_table), _random_truncations())
    for ring in rings:
        basis = set(ring.monomial_basis())
        for m in basis:
            n = m.degree
            subwords = {Monomial.from_arrows(m.arrows[k:k + size])
                        for size in range(1, n + 1) for k in range(n - size + 1)}
            assert subwords <= basis, m


def test_quotient_by_vectors_kills_ideal():
    table = GeneratorTable(1, {(1, 1): 1})
    alg = build_quotient(table, [], 3)
    t1 = parse_monomial("x11", 1)
    t2 = parse_monomial("x11*x11", 1)
    quot = quotient_by_vectors(alg, [{alg.index[t2]: Fraction(1)}])
    assert {format_monomial(m) for m in quot.basis} == {"e1", "x11"}
    assert quot.expansion(t2) == {}
    assert quot.product(quot.index[t1], quot.index[t1]) == {}
    assert quot.expansion(t1) == {quot.index[t1]: Fraction(1)}


def test_quotient_by_vectors_rejects_vectors_that_generate_more(weyl_table):
    # only type-homogeneous combinations of tags and top-degree monomials
    # span a two-sided ideal without closure
    ring = build_tagged_truncation(weyl_table, relation_series(weyl_table), 3)
    tag = ring.index[RelTag(1, 4, 1)]
    top = ring.index[parse_monomial("x12*x24", 4)]
    other_type = ring.index[parse_monomial("x21*x13", 4)]
    below_top = ring.index[parse_monomial("x12", 4)]
    quotient_by_vectors(ring, [{tag: Fraction(1), top: Fraction(1)}])
    for vec in ({tag: Fraction(1), other_type: Fraction(1)},
                {top: Fraction(1), below_top: Fraction(1)},
                {below_top: Fraction(1)}):
        with pytest.raises(InternalInvariantError):
            quotient_by_vectors(ring, [vec])
