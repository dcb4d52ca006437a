import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef.algebra import (_ALGEBRAS, AlgebraPresentation, QuotientModule, format_element,
                           format_scalar, multiply, normal_form, parse_element,
                           preset_presentation)
from ncdef.errors import StepBudgetExceeded, UnsupportedIdeal, ValidationError
from ncdef.linalg import Echelon, _add_multiple
from ncdef.presets import _PRESETS


@pytest.fixture(scope="module")
def weyl2():
    return preset_presentation("weyl2")


def test_normal_form_defining_relation(weyl2):
    assert format_element(normal_form(("Dx", "x"), weyl2)) == "x*Dx + 1"


def test_normal_form_already_normal(weyl2):
    assert format_element(normal_form(("x", "y"), weyl2)) == "x*y"


def test_normal_form_euler_square(weyl2):
    # (x Dx)(x Dx) = x^2 Dx^2 + x Dx, by hand rewriting
    a = normal_form(("x", "Dx"), weyl2)
    assert format_element(multiply(a, a)) == "x^2*Dx^2 + x*Dx"


def test_multiply_identity_and_relation(weyl2):
    a = weyl2.parse("2*x*y - Dy")
    assert multiply(weyl2.one(), a) == a
    assert format_element(multiply(weyl2.parse("Dx"), weyl2.parse("x"))) == "x*Dx + 1"


def test_multiply_mixed(weyl2):
    out = multiply(weyl2.parse("x + Dy"), weyl2.parse("y"))
    assert out == weyl2.parse("x*y + y*Dy + 1")


def test_quotient_normal_form_examples(weyl2):
    def reduce(text, ideal_gens):
        return QuotientModule(weyl2, ideal_gens).reduce(weyl2.parse(text))

    assert reduce("x*Dx + 1", ["Dx", "Dy"]) == weyl2.one()
    assert reduce("Dx^2", ["x", "y"]) == weyl2.parse("Dx^2")
    assert reduce("y*Dy", ["Dx", "y"]) == weyl2.parse("-1")


def test_quotient_idempotent_and_linear(weyl2):
    mod = QuotientModule(weyl2, ["Dx", "y"])
    rng = random.Random(7)
    words = weyl2.normal_words(3)
    for _ in range(25):
        a = weyl2.element({words[rng.randrange(len(words))]: rng.randint(-3, 3)
                           for _ in range(3)})
        b = weyl2.element({words[rng.randrange(len(words))]: rng.randint(-3, 3)
                           for _ in range(3)})
        ra, rb = mod.reduce(a), mod.reduce(b)
        assert mod.reduce(ra) == ra
        assert mod.reduce(a + b) == ra + rb
        assert mod.reduce(a.scale(Fraction(2, 3))) == ra.scale(Fraction(2, 3))


def test_quotient_unsupported_pair(weyl2):
    with pytest.raises(UnsupportedIdeal):
        QuotientModule(weyl2, ["x", "Dx"])
    with pytest.raises(UnsupportedIdeal):
        QuotientModule(weyl2, ["z"])


def _random_element(pres, rng, max_degree=3, nterms=3):
    words = pres.normal_words(max_degree)
    terms = {}
    for _ in range(nterms):
        w = words[rng.randrange(len(words))]
        terms[w] = terms.get(w, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return pres.element({w: c for w, c in terms.items() if c})


def test_associativity_on_random_triples(weyl2):
    rng = random.Random(2024)
    for _ in range(100):
        a = _random_element(weyl2, rng)
        b = _random_element(weyl2, rng)
        c = _random_element(weyl2, rng)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_degree_subadditivity(weyl2):
    def degree(f):
        return max(weyl2.word_degree(w) for w in f.terms)

    rng = random.Random(5)
    for _ in range(50):
        a = _random_element(weyl2, rng)
        b = _random_element(weyl2, rng)
        ab = multiply(a, b)
        if not (a.is_zero() or b.is_zero() or ab.is_zero()):
            assert degree(ab) <= degree(a) + degree(b)


def test_confluence_overlaps(weyl2):
    # every length-3 word whose two adjacent pairs are both reducible must
    # reduce to the same normal form along either reduction order
    gens = weyl2.generators
    for a in gens:
        for b in gens:
            for c in gens:
                if (a, b) not in weyl2.rules or (b, c) not in weyl2.rules:
                    continue
                left_first = weyl2.zero()
                for rw, rc in weyl2.rules[(a, b)]:
                    left_first = left_first + normal_form(rw + (c,), weyl2).scale(rc)
                right_first = weyl2.zero()
                for rw, rc in weyl2.rules[(b, c)]:
                    right_first = right_first + normal_form((a,) + rw, weyl2).scale(rc)
                assert left_first == right_first


def test_step_budget():
    looping = AlgebraPresentation(
        ["a", "b"],
        [(("a", "b"), [(("b", "a"), 1)]), (("b", "a"), [(("a", "b"), 1)])],
        step_budget=500)
    with pytest.raises(StepBudgetExceeded):
        normal_form(("a", "b"), looping)


def test_parse_format_round_trip(weyl2):
    for text in ["x*Dx + 1", "-2/3*y^2 + x", "0", "1", "Dy"]:
        elem = parse_element(weyl2, text)
        again = parse_element(weyl2, format_element(elem))
        assert again == elem


# the tokens of the element reader that the grammar replaced
_OLD_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-))")


def _reference_parse(pres, text):
    """A well-formed element string read token by token, as the token loop
    did: a number multiplies the term's coefficient, a generator and its
    ^exponent extend the term's word, and a + or - after a term closes it."""
    result, sign, coeff, word, have_term = pres.zero(), 1, 1, [], False
    tokens = [m.groups() for m in _OLD_TOKEN.finditer(text)]
    k = 0
    while k < len(tokens):
        num, name, _, _, plus, minus = tokens[k]
        if (plus or minus) and have_term:
            result = result + normal_form(word, pres).scale(sign * coeff)
            sign, coeff, word, have_term = 1, 1, [], False
        if minus:
            sign = -sign
        elif num:
            coeff, have_term = coeff * Fraction(num), True
        elif name:
            power = 1
            if k + 2 < len(tokens) and tokens[k + 1][2]:
                power, k = int(tokens[k + 2][0]), k + 2
            word, have_term = word + [name] * power, True
        k += 1
    return result + normal_form(word, pres).scale(sign * coeff) if have_term else result


def _nested_strings(matrices):
    if isinstance(matrices, str):
        yield matrices
    elif isinstance(matrices, list):
        for item in matrices:
            yield from _nested_strings(item)


def _shipped_element_strings():
    """(presentation, element string) for each rule right side, differential
    entry and given Ext entry of the built-in algebras, the presets, the
    shipped specs and perfbench's spec, and each versal family entry of the
    goldens.  Right sides are read with no rules, as ``from_json`` reads them."""
    documents = [(doc, []) for doc in _PRESETS.values()]
    documents += [(json.loads(path.read_text()), []) for path in SPECS]
    for path in sorted(Path(__file__).parent.glob("golden/*/report.json")):
        report = json.loads(path.read_text())
        problem = report["problem"]
        documents.append((_PRESETS[problem["preset"]] if "preset" in problem else problem,
                          [phi["mats"] for phi in report["versal_family"].values()]))
    algebras = list(_ALGEBRAS.values())
    for doc, family in documents:
        algebra = doc["algebra"]
        algebras.append(_ALGEBRAS[algebra] if isinstance(algebra, str) else algebra)
        pres = AlgebraPresentation.from_json(algebras[-1])
        given = [rep["mats"] for table in doc.get("ext_basis", {}).values()
                 for reps in table.values() for rep in reps]
        for matrices in [mod["diffs"] for mod in doc["modules"]] + given + family:
            yield from ((pres, text) for text in _nested_strings(matrices))
    for algebra in algebras:
        probe = AlgebraPresentation(algebra["generators"], [], algebra.get("weights"))
        yield from ((probe, rhs) for _, rhs in algebra["rules"])


def test_shipped_element_strings_read_as_the_token_loop_read_them(weyl2):
    strings = list(_shipped_element_strings())
    assert len(strings) > 1000
    strings += [(weyl2, text) for text in (
        "Dx*x - 4/2*y + 1/2", " - x ^ 2 * y  +  3 ", "2/3-1/2*Dy^0", "0*x + 0",
        "1/2*2*x", "x^10*Dx^3 - 7*Dy*y*x^2 + 3/4")]
    for pres, text in strings:
        expected = _reference_parse(pres, text)
        assert list(parse_element(pres, text).terms.items()) == \
            list(expected.terms.items()), text


def test_rule_validation():
    with pytest.raises(ValidationError):
        AlgebraPresentation(["a"], [(("a",), [((), 1)])])
    with pytest.raises(ValidationError):
        AlgebraPresentation(["a", "b"], [(("a", "b"), [(("a", "b", "b"), 1)])])


def test_integral_coefficients_stay_ints_and_floats_are_refused():
    pres = preset_presentation("weyl2")
    a = parse_element(pres, "Dx*x - 4/2*y + 1/2")  # Dx*x = x*Dx + 1
    assert {w: (c, type(c)) for w, c in a.terms.items()} == {
        ("x", "Dx"): (1, int), ("y",): (-2, int), (): (Fraction(3, 2), Fraction)}
    b = parse_element(pres, "x*Dx - 2*y").scale(Fraction(6, 3))
    assert b == parse_element(pres, "2*x*Dx - 4*y")
    assert all(type(c) is int for c in b.terms.values())
    assert format_scalar(Fraction(-4, 2)) == "-2" and format_scalar(Fraction(3, 6)) == "1/2"
    for bad in (lambda: format_scalar(0.5), lambda: a.scale(1.0),
                lambda: pres.element({("x",): 0.5})):
        with pytest.raises(TypeError):
            bad()


# ---------------------------------------------------------------------------
# the rewriting kernel against the definitions it replaces


def _reference_normal_form(word, pres):
    """Leftmost-first rewriting that rescans every rewritten word from
    position 0, uncached; returns the terms and the number of steps."""
    result = {}
    stack = [(tuple(word), 1)]
    steps = 0
    while stack:
        w, c = stack.pop()
        for k in range(len(w) - 1):
            rhs = pres.rules.get((w[k], w[k + 1]))
            if rhs is not None:
                steps += 1
                for rw, rc in rhs:
                    stack.append((w[:k] + rw + w[k + 2:], c * rc))
                break
        else:
            s = result.get(w, 0) + c
            if s:
                result[w] = s
            else:
                result.pop(w, None)
    return result, steps


def _non_confluent():
    # (x*x)*x and x*(x*x) rewrite to x*y - 1 and x*y
    return AlgebraPresentation(
        ["x", "y"],
        [(("x", "x"), [(("y",), 1)]), (("y", "x"), [(("x", "y"), 1), ((), -1)])],
        weights={"x": 1, "y": 2})


def test_non_confluent_presentation_depends_on_the_order():
    pres = _non_confluent()
    left = normal_form(("y", "x"), pres)
    right = multiply(pres.parse("x"), normal_form(("x", "x"), pres))
    assert left != right


def test_from_json_rejects_the_unresolved_overlap():
    # the document of _non_confluent: (x*x)*x and x*(x*x) differ by 1
    with pytest.raises(ValidationError, match=r"not confluent: x\*x\*x rewrites to "
                                              r"x\*y - 1 and to x\*y$"):
        AlgebraPresentation.from_json({"generators": ["x", "y"],
                                       "rules": [["x*x", "y"], ["y*x", "x*y - 1"]],
                                       "weights": {"x": 1, "y": 2}})


SPECS = sorted(Path(__file__).parent.glob("specs/*.json")) + \
    [Path(__file__).parent.parent / "perfbench" / "poly3.json"]


@pytest.mark.parametrize("document", [
    # the cusp y^2 = x^3: y*y -> x*x*x keeps the weighted degree, not the length
    {"generators": ["x", "y"], "rules": [["y*x", "x*y"], ["y*y", "x*x*x"]],
     "weights": {"x": 2, "y": 3}},
    # k[x]/(x^3): x*x -> w2 raises word_key, so no static order is asked for
    {"generators": ["x", "w2"], "weights": {"x": 1, "w2": 2},
     "rules": [["x*x", "w2"], ["x*w2", "0"], ["w2*x", "0"], ["w2*w2", "0"]]},
] + [json.loads(path.read_text())["algebra"] for path in SPECS],
    ids=["cusp3", "trunc3"] + [path.parent.name + "/" + path.stem for path in SPECS])
def test_from_json_accepts_resolved_overlaps(document):
    AlgebraPresentation.from_json(document)


@pytest.mark.parametrize("make", [lambda: preset_presentation("weyl2"), _non_confluent],
                         ids=["weyl2", "non-confluent"])
def test_normal_form_matches_leftmost_first_rescanning(make):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    gens = make().generators

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(gens), max_size=9))
    def check(word):
        pres = make()
        expected, steps = _reference_normal_form(word, pres)
        assert list(normal_form(word, pres).terms.items()) == list(expected.items())
        # the cached copy keeps the order too
        assert list(normal_form(word, pres).terms.items()) == list(expected.items())
        rules = list(pres.rules.items())
        at_budget = AlgebraPresentation(gens, rules, pres.weights, step_budget=steps)
        assert normal_form(word, at_budget).terms == expected
        if steps:
            below = AlgebraPresentation(gens, rules, pres.weights, step_budget=steps - 1)
            with pytest.raises(StepBudgetExceeded):
                normal_form(word, below)

    check()


def _presentation(name, request):
    return {"weyl2": lambda: preset_presentation("weyl2"),
            "poly3": lambda: request.getfixturevalue("poly3").bundle.pres,
            "count-changing": lambda: request.getfixturevalue("count_changing"),
            "non-confluent": _non_confluent}[name]()


@pytest.mark.parametrize("name", ["weyl2", "poly3", "count-changing", "non-confluent"])
def test_every_term_has_the_class_of_its_word(name, request):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pres = _presentation(name, request)
    words = st.lists(st.sampled_from(pres.generators), max_size=7).map(tuple)

    def added(c1, c2):
        return tuple(x + y for x, y in zip(c1, c2))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(words, words)
    def check(u, v):
        cls = pres.word_class(u + v)
        assert added(pres.word_class(u), pres.word_class(v)) == cls
        assert all(pres.word_class(w) == cls for w in normal_form(u + v, pres).terms)
        product = multiply(normal_form(u, pres), normal_form(v, pres))
        assert all(pres.word_class(w) == cls for w in product.terms)

    check()


def test_word_class_grading_is_lazy(count_changing):
    pres = AlgebraPresentation(count_changing.generators, list(count_changing.rules.items()))
    assert pres._letter_classes is None
    words = pres.normal_words(3)
    classes = [pres.word_class(w) for w in words]
    # y*x -> x*y + x drops a y, so only the counts of x and z survive
    assert [pres.word_class(w) for w in words] == classes
    assert {c[1] for c in classes} == {0}
    assert pres.word_class(("x", "z", "z")) != pres.word_class(("x", "x", "z"))


@pytest.mark.parametrize("name", ["weyl2", "poly3", "count-changing", "non-confluent"])
def test_word_class_is_the_reduced_count_of_the_whole_word(name, request):
    # the class as the grading echelon reduces the generator counts of the
    # whole word, not as the sum of its letters' classes
    pres = _presentation(name, request)
    grading = Echelon()
    for lhs, rhs in pres.rules.items():
        for u, _ in rhs:
            change = Counter(lhs)
            change.subtract(u)
            grading.add({g: c for g, c in change.items() if c})
    for n in range(5):
        for word in itertools.product(pres.generators, repeat=n):
            counts = grading.reduce(Counter(word))
            want = tuple(counts.get(g, 0) for g in pres.generators)
            got = pres.word_class(word)
            assert got == want and hash(got) == hash(want)


def _modules(weyl, poly3):
    for problem in (weyl, poly3):
        for res in problem.bundle.resolutions.values():
            yield res.module


def test_basis_words_are_the_normal_words_avoiding_the_ideal(weyl, poly3):
    for module in _modules(weyl, poly3):
        ideal = set(module.ideal_gens)
        for bound in range(16):
            expected = [w for w in module.pres.normal_words(bound)
                        if not ideal.intersection(w)]
            assert module.basis_words(bound) == expected


def _reference_words(pres, max_degree, gens):
    """Normal words over ``gens`` of degree <= max_degree: a breadth-first
    search by length, then one sort of the whole list by ``word_key``."""
    words = [()]
    frontier = [((), 0)]
    while frontier:
        new = []
        for w, deg in frontier:
            for g in gens:
                deg2 = deg + pres.weights[g]
                if deg2 <= max_degree and not (w and (w[-1], g) in pres.rules):
                    new.append((w + (g,), deg2))
        words.extend(w for w, _ in new)
        frontier = new
    return sorted(words, key=pres.word_key)


def _weighted():
    # x of weight 2 and y of weight 3, so the degree layers 1 and 2 + 3k
    # hold no y-free word of odd degree
    return AlgebraPresentation(["x", "y"], [(("y", "x"), [(("x", "y"), 1)])],
                               weights={"x": 2, "y": 3})


@pytest.mark.parametrize("name, top", [("weyl2", 15), ("poly3", 12), ("weighted", 20),
                                       ("count-changing", 10), ("non-confluent", 12)])
def test_words_by_layer_are_the_sorted_breadth_first_words(name, top, request):
    # each presentation fresh, its bounds asked in descending and then in
    # ascending order, so a layer serves bounds both below and above it
    for bounds in (range(top, -1, -1), range(top + 1)):
        pres = _weighted() if name == "weighted" else _presentation(name, request)
        pres = AlgebraPresentation(pres.generators, list(pres.rules.items()), pres.weights)
        gens = tuple(pres.generators)
        for bound in bounds:
            assert pres.normal_words(bound) == _reference_words(pres, bound, gens)


def test_module_basis_words_by_layer_are_the_sorted_breadth_first_words(weyl):
    for res in weyl.bundle.resolutions.values():
        module = res.module
        for bound in range(16):
            assert module.basis_words(bound) == _reference_words(
                module.pres, bound, module._basis_gens)


@pytest.mark.parametrize("name", ["weyl2", "poly3", "weighted", "count-changing",
                                  "non-confluent"])
def test_class_groups_group_the_normal_words_by_class(name, request):
    pres = _weighted() if name == "weighted" else _presentation(name, request)
    for bound in (9, 3, 6):
        want = {}
        for n, w in enumerate(pres.normal_words(bound)):
            want.setdefault(pres.word_class(w), []).append(n)
        assert list(pres.class_groups(bound).items()) == list(want.items())


def _case4_presentation():
    """y*x -> u*y and u*y -> x*y with ideal (x, u): x*y^a is x*y^a in A, so
    no rule gives x*y^a directly and the table takes a trade step (case 4)."""
    return AlgebraPresentation(
        ["x", "y", "u"],
        [(("y", "x"), [(("u", "y"), 1)]), (("u", "y"), [(("x", "y"), 1)]),
         (("y", "u"), [(("u", "y"), 1)])])


def _action_modules(request):
    """(name, module, table entries that may reduce) for the action table checks."""
    for problem in ("weyl", "poly1", "poly3"):
        for k, res in request.getfixturevalue(problem).bundle.resolutions.items():
            yield "%s-M%d" % (problem, k), res.module, False
    weyl1 = preset_presentation("weyl1")
    for ideal in (["Dx"], ["x"]):
        yield "weyl1-" + ideal[0], QuotientModule(weyl1, ideal), False
    count_changing = request.getfixturevalue("count_changing")
    for ideal in (["x"], ["y"]):
        pres = AlgebraPresentation(count_changing.generators,
                                   list(count_changing.rules.items()))
        yield "count-changing-" + ideal[0], QuotientModule(pres, ideal), False
    # D*x -> 2*x*D + 1 with the ideal (x): x*D^k takes case 3, dividing by 2
    case3 = AlgebraPresentation(["x", "D"], [(("D", "x"), [(("x", "D"), 2), ((), 1)])])
    yield "case3", QuotientModule(case3, ["x"]), False
    yield "case4", QuotientModule(_case4_presentation(), ["x", "u"]), True


def _reference_reduce(module, a):
    """The class of ``a`` by the trade loop: trade the largest word holding
    an ideal generator g, at its last g, for the corrections of nf((w/g)*g),
    until no word holds one."""
    pres = module.pres
    terms = dict(a.terms)
    for _ in range(pres.step_budget + 1):
        reducible = [w for w in terms if not module._gen_set.isdisjoint(w)]
        if not reducible:
            return terms
        w = max(reducible, key=pres.word_key)
        c = terms.pop(w)
        k = max(n for n, g in enumerate(w) if g in module._gen_set)
        rest = dict(normal_form(w[:k] + w[k + 1:] + w[k:k + 1], pres).terms)
        lead = rest.pop(w, 0)  # w less g, times g: lead*w + rest in A*g
        if not lead:
            raise UnsupportedIdeal("the ideal cannot reduce %s" % (w,))
        _add_multiple(terms, rest, Fraction(-c) / lead)
    raise StepBudgetExceeded("module reduction exceeded %d steps" % pres.step_budget)


def test_action_table_is_the_reduced_product(request, monkeypatch):
    # every generator on every basis word up to degree 9, and every word of
    # degree 2 acting letter by letter: the trade loop's class of u*w,
    # whatever the order of its terms, and so is reduce's.  Words of degree
    # 2 skip the case-4 module, whose trade loop cannot reduce u*x*y.
    for name, module, may_trade in _action_modules(request):
        pres = module.pres
        traded = []
        trade = QuotientModule._trade
        monkeypatch.setattr(QuotientModule, "_trade",
                            lambda self, *args: traded.append(args) or trade(self, *args))
        words = [u for u in pres.normal_words(2 - may_trade) if u]
        basis = module.basis_words(9)
        table = {(u, w): dict(module.word_action(u, w)) for u in words for w in basis}
        assert bool(traded) == may_trade, name
        for (u, w), terms in table.items():
            product = normal_form(u + w, pres)
            expected = _reference_reduce(module, product)
            assert terms == expected, (name, u, w)
            assert module.reduce(product).terms == expected, (name, u, w)
            assert all(set(x).isdisjoint(module.ideal_gens) for x in terms)
            # cached
            assert module.word_action(u, w) == terms
        monkeypatch.setattr(QuotientModule, "_trade", trade)


def test_action_table_of_a_non_terminating_presentation_stops_on_the_budget():
    looping = AlgebraPresentation(
        ["a", "b"],
        [(("a", "b"), [(("b", "a"), 1)]), (("b", "a"), [(("a", "b"), 1)])],
        step_budget=500)
    module = QuotientModule(looping, [])
    with pytest.raises(StepBudgetExceeded):
        module.word_action(("a",), ("b",))


def test_module_reduction_stops_on_the_budget():
    # y*x -> x*x with the ideal (x): nf(y*x) = x*x has no x*y term, so the
    # ideal cannot remove x*y and the reduction stops at once
    pres = AlgebraPresentation(["x", "y"], [(("y", "x"), [(("x", "x"), 1)])],
                               step_budget=500)
    with pytest.raises(UnsupportedIdeal):
        QuotientModule(pres, ["x"]).reduce(pres.parse("x*y"))


def test_module_reduction_cycle_stops_on_the_budget():
    # y*x -> x*y + x*z and z*x -> x*z + x*y with the ideal (x): the class of
    # x*y is minus that of x*z and back, so the nesting bound stops it
    pres = AlgebraPresentation(["x", "y", "z"],
                               [(("y", "x"), [(("x", "y"), 1), (("x", "z"), 1)]),
                                (("z", "x"), [(("x", "z"), 1), (("x", "y"), 1)])],
                               step_budget=500)
    with pytest.raises(StepBudgetExceeded):
        QuotientModule(pres, ["x"]).reduce(pres.parse("x*y"))


@pytest.mark.parametrize("n", [100, 400])
def test_nesting_bound_does_not_depend_on_what_the_table_holds(n):
    # on a fresh table the entry of Dx on x^n nests n entries deep; once the
    # entries on the shorter powers are in the table it nests one deep
    module = QuotientModule(preset_presentation("weyl1"), ["Dx"])
    assert module.word_action(("Dx",), ("x",) * n) == {("x",) * (n - 1): n}
