"""The carried order step against a from-scratch build of every ring.

Each order's bookkeeping ring R_{n+1} extends the previous order's ring by
one degree, and the collapse to H_{n+1} keeps the products it does not
touch.  An extension carries the previous ring whole when its rules below
its cutoff and its tag relations are unchanged and its rules are
homogeneous, and otherwise starts from nothing.  ``scratch_truncation``
below is the builder the order step ran before: it completes the standard
basis, reduces every (survivor, arrow) word and folds every product anew
at each order.  On every order step of the problems below, the carried R
and H must have the same basis labels in the same order, the same products
and the same tags as that builder plus ``quotient_by_vectors``.  The points
of k[x]/(x^N) gain the series term x^N only at order N, so their rings
must start from nothing there.

The counts at the end keep the carry from decaying into a rebuild: on the
order-7 flagship only the ring at cutoff 4 starts from nothing, each later
ring keeps the previous ring's products (and renumbers the few that name a
tag) and folds only its new degree's, the run projects each distinct
relation-class cocycle once, and each pair of system cochains is composed
once.
"""

import json
import random
from pathlib import Path

import pytest

import ncdef.checker as checker
import ncdef.massey as massey
from ncdef import algebra
from ncdef.errors import InternalInvariantError
from ncdef.linalg import _add_multiple
from ncdef.matrix_ring import (FiniteDimPointedAlgebra, MatricPoly, Monomial, RelTag,
                               _StandardBasis, _Truncation, build_tagged_truncation, concat,
                               label_sort_key, quotient_by_vectors)
from ncdef.presets import RunOptions, load_preset, problem_from_json
from ncdef.yoneda import ExtBasis, ExtComputer
from test_standard_basis import _dependent_relation, _random_relation, _random_table
from test_truncated_points import _trunc_spec

SPECS = Path(__file__).parent / "specs"


def scratch_truncation(table, relations, cutoff):
    """Quotient by (f, tag) pairs and all words of degree >= cutoff, built
    from nothing: survivors level by level, every (survivor, arrow) word
    reduced, every product of survivors folded through those steps."""
    std = _StandardBasis(table, cutoff)
    elements = []
    tags = []
    for f, tag in relations:
        words = {std.word(m): c for m, c in f.terms.items() if m.degree < cutoff}
        if words:
            elements.append((words, {} if tag is None else {tag: -1}))
            if tag is not None:
                tags.append(tag)
    std.complete(elements)

    level = [(k,) for k in range(len(std.arrows))] if cutoff > 1 else []
    survivors = []
    while level:
        survivors += level
        if len(level[0]) + 1 >= cutoff:
            break
        level = [w + (k,) for w in level for k in std.after[w[-1]]
                 if not std.has_tip_suffix(w + (k,))]
    labels = {w: std.monomial(w) for w in survivors}
    basis = [Monomial.idempotent(i) for i in range(1, table.p + 1)]
    basis += labels.values()
    basis += [t for t in tags if t not in std.tags.rows]
    basis.sort(key=label_sort_key)
    index = {b: k for k, b in enumerate(basis)}
    position = {w: index[m] for w, m in labels.items()}

    steps = {}
    for w in survivors:
        if len(w) + 1 >= cutoff:
            continue
        for k in std.after[w[-1]]:
            x = w + (k,)
            if x in position:
                coords = {position[x]: 1}
            else:
                words, residual = std.reduce({x: 1})
                coords = {position[v]: c for v, c in words.items()}
                coords.update((index[t], c)
                              for t, c in std.tags.reduce(residual).items())
            steps[(position[w], k)] = coords

    prefix = {}
    starting = {}
    for k, label in enumerate(basis):
        if isinstance(label, Monomial):
            starting.setdefault(label.i, []).append(k)
            if label.arrows:
                head = Monomial(label.i, label.arrows[-1][0], label.arrows[:-1])
                prefix[k] = (index[head], std.number[label.arrows[-1]])
    products = {}
    for a, la in enumerate(basis):
        if isinstance(la, RelTag):
            continue
        for b in starting[la.j]:
            lb = basis[b]
            if la.degree + lb.degree >= cutoff:
                break
            if not lb.degree:
                coords = {a: 1}
            elif not la.degree:
                coords = {b: 1}
            else:
                head, arrow = prefix[b]
                coords = {}
                for k, c in products.get((a, head), {}).items():
                    _add_multiple(coords, steps.get((k, arrow), {}), c)
            if coords:
                products[(a, b)] = coords
    return FiniteDimPointedAlgebra(table.p, basis, products, cutoff)


def _basis(problem):
    if problem.preset_basis is not None:
        return problem.preset_basis
    computer = ExtComputer(problem.bundle, problem.options.ladder)
    return ExtBasis.computed(computer)


def _problem(name):
    if name.startswith("trunc"):
        return problem_from_json(_trunc_spec(int(name[len("trunc"):])))
    if name in ("weyl2-simple4", "poly1-point"):
        return load_preset(name)
    return problem_from_json(json.loads((SPECS / (name + ".json")).read_text()))


def _order_steps(basis, max_order, monkeypatch):
    """(series, R, vectors, H) of each order step of a run to ``max_order``."""
    seen = []
    tagged, collapse = massey.build_tagged_truncation, massey.quotient_by_vectors

    def tagged_spy(table, series, cutoff, previous):
        R = tagged(table, series, cutoff, previous)
        seen.append([dict(series), R])
        return R

    def collapse_spy(R, vectors):
        H = collapse(R, vectors)
        seen[-1] += [vectors, H]
        return H

    monkeypatch.setattr(massey, "build_tagged_truncation", tagged_spy)
    monkeypatch.setattr(massey, "quotient_by_vectors", collapse_spy)
    massey.compute_hull(basis, RunOptions(max_order=max_order, stop_on_stabilized=False))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name, max_order", [
    ("weyl2-simple4", 12), ("poly1-point", 6), ("poly3", 6),
    ("poly2-point-p2", 6), ("poly2-point-p3", 5), ("poly3-point-p2", 5),
    ("trunc3", 5), ("trunc4", 6), ("trunc5", 7), ("trunc6", 8), ("trunc7", 9),
    ("trunc8", 10)])
def test_carried_rings_match_the_scratch_builder(name, max_order, monkeypatch):
    if name.startswith("trunc"):
        monkeypatch.setattr(algebra, "_linked_pairs", lambda pres: [])
    problem = _problem(name)
    basis = _basis(problem)
    steps = _order_steps(basis, max_order, monkeypatch)
    assert [R.cutoff for _, R, _, _ in steps] == list(range(3, max_order + 2))
    recomputed = 0
    for (series, R, vectors, H), before in zip(steps, [None] + steps):
        table = basis.table()
        ref = scratch_truncation(table, [(f, tag) for tag, f in series.items()
                                         if not f.is_zero()], R.cutoff)
        assert R.basis == ref.basis
        assert R.products == ref.products
        assert R.tags() == ref.tags()
        ref_H = quotient_by_vectors(ref, vectors)
        assert H.basis == ref_H.basis
        assert H.products == ref_H.products
        if before is not None:
            old = before[1]
            kept = {id(v) for v in old.products.values()}
            recomputed += sum(id(v) not in kept for (a, b), v in R.products.items()
                              if R.basis[a].degree + R.basis[b].degree < old.cutoff)
    if name.startswith("trunc"):
        # x^N turns from a survivor into a tip below the previous cutoff, so
        # the ring starts from nothing and folds every product again
        assert recomputed


def test_random_series_extend_like_the_scratch_builder():
    # series that gain terms degree by degree, as the order step's do: the
    # ring at cutoff c holds the terms below c - 1 and extends the ring at
    # c - 1, so rules change their rests, new tips appear below the previous
    # cutoff and inhomogeneous rules drop words at the cutoff
    counts = {"carried": 0, "restarted": 0}
    reduce = _StandardBasis.reduce
    for seed, (vertices, homogeneous) in enumerate(
            12 * [(1, True), (1, False), (2, True), (2, False)]):
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
        R = None
        for cutoff in range(3, 8):
            below = [(MatricPoly(f.type, {m: c for m, c in f.terms.items()
                                          if m.degree < cutoff - 1}), tag)
                     for tag, f in series.items()]
            old, R = R, build_tagged_truncation(table, {tag: f for f, tag in below},
                                                cutoff, R)
            if old is not None:
                # a carried ring shares at least the idempotents' products
                # with the previous one, a restarted ring none
                kept = {id(v) for v in old.products.values()}
                shared = any(id(v) in kept for v in R.products.values())
                counts["carried" if shared else "restarted"] += 1
            ref = scratch_truncation(table, [(f, tag) for f, tag in below
                                             if not f.is_zero()], cutoff)
            assert R.basis == ref.basis, (seed, cutoff)
            assert R.products == ref.products, (seed, cutoff)
    assert _StandardBasis.reduce is reduce
    assert counts["carried"] and counts["restarted"]


def test_a_carried_label_missing_from_the_extension_is_an_invariant_error(weyl):
    table = weyl.preset_basis.table()
    x12, x24 = Monomial.from_arrows([(1, 2, 1)]), Monomial.from_arrows([(2, 4, 1)])
    series = {RelTag(1, 4, 1): MatricPoly((1, 4), {concat(x12, x24): 1})}
    R = build_tagged_truncation(table, series, 3)
    # the series is settled, so the extension carries R whole
    carried = build_tagged_truncation(table, series, 4, R)
    assert carried.products[(0, 0)] is R.products[(0, 0)]
    forged = _Truncation(R.p, R.basis + [RelTag(1, 4, 2)], R.products, R.cutoff,
                         R.std, R.labels)
    with pytest.raises(InternalInvariantError):
        build_tagged_truncation(table, series, 4, forged)


def _degree(label):
    return label.degree if isinstance(label, Monomial) else None


def test_flagship_order_step_reuses_what_did_not_change(weyl, monkeypatch):
    rings, projections = [], []
    pairs, calls = set(), []
    tagged, project = massey.build_tagged_truncation, massey.project_ext2
    compose = checker.compose_cochains

    def tagged_spy(*args):
        rings.append(tagged(*args))
        return rings[-1]

    def compose_spy(outer, inner):
        calls.append(None)
        pairs.add((id(outer), id(inner)))
        return compose(outer, inner)

    monkeypatch.setattr(massey, "build_tagged_truncation", tagged_spy)
    monkeypatch.setattr(massey, "project_ext2",
                        lambda *args: projections.append(args) or project(*args))
    monkeypatch.setattr(checker, "compose_cochains", compose_spy)
    state = massey.init_order2(weyl.preset_basis,
                               RunOptions(max_order=7, stop_on_stabilized=False))
    rings.append(state.ring)
    composed = []
    while state.order <= 7:
        before = len(pairs)
        state = massey.advance_order(state)
        composed.append(len(pairs) - before)
    assert [R.cutoff for R in rings] == list(range(2, 9))

    # order 2's nonzero products change the rules below cutoff 3, so the
    # ring at cutoff 4 starts from nothing; it is the run's only restart
    shares = [bool({id(v) for v in old.products.values()}
                   & {id(v) for v in R.products.values()})
              for old, R in zip(rings, rings[1:])]
    assert shares == [True, False, True, True, True, True]
    # past order 3 the series are settled: a ring keeps each product of the
    # previous ring, renumbers those that name a tag and folds its new
    # degree's products, 480 + 24 of the 1,320 products at cutoff 8 (the
    # full fold of every product before)
    for old, R in zip(rings[2:], rings[3:]):
        move = [R.index[label] for label in old.basis]
        renumbered = 0
        for (a, b), v in old.products.items():
            w = R.products[(move[a], move[b])]
            assert w == {move[k]: c for k, c in v.items()}
            names_a_tag = any(isinstance(old.basis[k], RelTag) for k in v)
            assert (w is v) != names_a_tag
            renumbered += names_a_tag
        kept = {id(v) for v in old.products.values()}
        fresh = [(a, b) for (a, b), v in R.products.items() if id(v) not in kept]
        new = [(a, b) for a, b in R.products
               if _degree(R.basis[a]) + _degree(R.basis[b]) >= old.cutoff]
        assert len(fresh) == len(new) + renumbered
    assert len(rings[-1].products) == 1320
    assert len(fresh) <= 504
    # the four relation classes are projected once, at order 3, and their
    # cocycles recur unchanged at every later order (24 calls before)
    assert len(projections) <= 4
    # each pair of system cochains is composed once in the run, across the
    # three curvature passes of each order (716 calls before)
    assert len(calls) == len(pairs)
    assert len(calls) <= 60
    assert composed[-1] == 0
