"""Associative algebras presented by generators and a rewriting system.

An algebra element is kept as a sparse map from normal-form words to exact
rational coefficients, ints or Fractions: every coefficient enters through
``linalg.exact``, so an integral one stays an int.  A word is normal when
no adjacent generator pair is the left side of a rewrite rule; every rule
rewrites a length-2 word into a linear combination of words of no larger
degree, so exhaustive rewriting terminates for the shipped presets (a step
budget guards user presentations).  ``from_json`` rejects a document whose
rules rewrite some overlap a*b*c of two left sides to two normal forms.

The built-in algebras are presentation documents, read by
``AlgebraPresentation.from_json`` like a spec's ``algebra``
(``preset_presentation``): ``weyl2`` is the second Weyl algebra
k[x,y]<Dx,Dy> with [Dx,x] = [Dy,y] = 1, generators ordered x < y < Dx < Dy
so that normal words are the nondecreasing (PBW) ones; ``weyl1`` is the
first Weyl algebra and ``poly1`` is k[x].

No rewriting is done twice: ``AlgebraPresentation._nf_cache`` maps a word to
its normal form's terms and ``QuotientModule._action_cache`` maps (word u,
basis word w) to the class of u*w, each capped at ``CACHE_CAP`` entries;
``AlgebraPresentation._layers`` maps a generator tuple to its normal words
of each exact degree, each layer built and sorted once, and ``_word_cache``
maps (degree bound, generator tuple) to the words of the layers up to the
bound; ``_class_groups`` maps a bound to the normal words grouped by
``word_class`` and ``_prefix_classes`` each word grouped so far to its
class; ``_degree_cache`` maps a word to its degree, capped at
``CACHE_CAP``; ``_letter_classes`` maps each generator to its class, built
on the first ``word_class`` or ``class_groups`` call.  A module acts
through a table of generator actions on basis words, as one computes in
solvable (PBW) algebras (Kandri-Rody and Weispfenning, J. Symb. Comp. 9
(1990)); the class of a word u is its action u*1 on the empty word, and
``QuotientModule.reduce`` sums those classes.  An entry that no rule gives
takes one trade step through the table, and nesting past ``ACTION_DEPTH``
entries not yet in the table, even after ``word_action`` fills the word's
suffixes, raises StepBudgetExceeded.

Rule right sides and document matrix entries are element strings, read
under one strict grammar by ``parse_element``.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from operator import add

from .errors import StepBudgetExceeded, UnsupportedIdeal, ValidationError
from .linalg import Echelon, _add_multiple, exact

Word = tuple  # tuple of generator names

DEFAULT_STEP_BUDGET = 10**6
CACHE_CAP = 200000
ACTION_DEPTH = 100


class AlgebraPresentation:
    """Generators, rewrite rules and degree weights of an algebra."""

    def __init__(self, generators, rules, weights=None, step_budget=DEFAULT_STEP_BUDGET):
        self.generators = list(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValidationError("duplicate generator names")
        self.gen_index = {g: k for k, g in enumerate(self.generators)}
        self.weights = dict(weights) if weights else {g: 1 for g in self.generators}
        unknown = sorted(set(self.weights) - set(self.gen_index))
        if unknown:
            raise ValidationError("unknown weight %s" % ", ".join(map(repr, unknown)))
        for g in self.generators:
            w = self.weights.setdefault(g, 1)
            if not isinstance(w, int) or w < 0:
                raise ValidationError("generator weights must be nonnegative integers")
        self.step_budget = step_budget
        self._degree_cache = {}
        self.rules = {}
        for lhs, rhs in rules:
            lhs = tuple(lhs)
            if len(lhs) != 2 or any(g not in self.gen_index for g in lhs):
                raise ValidationError("rule left sides must be two-generator words")
            terms = [(tuple(w), exact(c)) for w, c in rhs]
            lhs_deg = self.word_degree(lhs)
            for w, _ in terms:
                if any(g not in self.gen_index for g in w):
                    raise ValidationError("rule right side uses unknown generator")
                if self.word_degree(w) > lhs_deg:
                    raise ValidationError("rule right side has larger degree than left side")
            self.rules[lhs] = terms
        self._nf_cache = {}
        self._layers = {}
        self._word_cache = {}
        self._class_groups = {}
        self._letter_classes = None
        self._prefix_classes = {(): (0,) * len(self.generators)}

    def word_degree(self, word):
        deg = self._degree_cache.get(word)
        if deg is None:
            deg = sum(self.weights[g] for g in word)
            if len(self._degree_cache) < CACHE_CAP:
                self._degree_cache[word] = deg
        return deg

    def word_class(self, word):
        """A word's generator counts modulo counts(lhs) - counts(u) over every
        rule term u, as a tuple over the generators.  Rewriting keeps the
        class, so each term of a normal form or product has its word's class.
        The class is linear in the counts: the sum of its letters' classes.
        """
        letters = self._letters()
        return tuple(map(sum, zip((0,) * len(self.generators),
                                  *(letters[g] for g in word))))

    def _letters(self):
        """{generator: its word_class}, built on the first call."""
        letters = self._letter_classes
        if letters is None:
            grading = Echelon()
            for lhs, rhs in self.rules.items():
                for u, _ in rhs:
                    change = Counter(lhs)
                    change.subtract(u)
                    grading.add({g: c for g, c in change.items() if c})
            letters = self._letter_classes = {}
            for g in self.generators:
                counts = grading.reduce({g: 1})
                letters[g] = tuple(counts.get(h, 0) for h in self.generators)
        return letters

    def word_key(self, word):
        return (self.word_degree(word), tuple(self.gen_index[g] for g in word))

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {(): 1})

    def element(self, terms):
        out = {}
        for w, c in terms.items():
            c = exact(c)
            if c:
                out[tuple(w)] = c
        return AlgebraElement(self, out)

    def normal_words(self, max_degree):
        """All normal words of degree <= max_degree, in (degree, lex) order."""
        return self._words(max_degree, tuple(self.generators))

    def class_groups(self, max_degree):
        """{word_class: positions in ``normal_words(max_degree)``}, built once
        per bound.  A normal word's prefix is a normal word of lower degree,
        so each class is its prefix's plus its last letter's."""
        groups = self._class_groups.get(max_degree)
        if groups is None:
            groups = {}
            letters, classes = self._letters(), self._prefix_classes
            for n, w in enumerate(self._words(max_degree, tuple(self.generators))):
                cls = classes.get(w)
                if cls is None:
                    cls = classes[w] = tuple(map(add, classes[w[:-1]], letters[w[-1]]))
                groups.setdefault(cls, []).append(n)
            self._class_groups[max_degree] = groups
        return groups

    def _words(self, max_degree, gens):
        """Normal words over ``gens`` of degree <= max_degree, by word_key.

        ``_layers[gens][d]`` holds the (index tuple, word) pairs of the
        normal words of degree exactly d, sorted once: layer d extends layer
        d - weight(g) by each letter g that ends no rule's left side there.
        Each bound's list is the words of a prefix of the layers.
        """
        key = (max_degree, gens)
        words = self._word_cache.get(key)
        if words is not None:
            return words
        # weight-0 generators would make degree layers infinite
        if any(self.weights[g] == 0 for g in self.generators):
            raise ValidationError("normal word enumeration needs positive weights")
        layers = self._layers.setdefault(gens, [[((), ())]])
        letters = [(g, self.weights[g], (self.gen_index[g],)) for g in gens]
        while len(layers) <= max_degree:
            degree = len(layers)
            layer = [(k + index, w + (g,))
                     for g, weight, index in letters if weight <= degree
                     for k, w in layers[degree - weight]
                     if not (w and (w[-1], g) in self.rules)]
            layer.sort()
            layers.append(layer)
        words = self._word_cache[key] = [w for layer in layers[:max_degree + 1]
                                         for _, w in layer]
        return words

    def parse(self, text):
        return parse_element(self, text)

    @staticmethod
    def from_json(data):
        check_keys(data, ("generators", "rules", "weights"), "algebra")
        gens, rules = data.get("generators"), data.get("rules", [])
        weights = data.get("weights")
        if not (isinstance(gens, list)
                and all(isinstance(g, str) and _NAME.fullmatch(g) for g in gens)):
            raise ValidationError("algebra presentation needs a list of 'generators' names")
        if not (isinstance(rules, list) and all(
                isinstance(rule, list) and len(rule) == 2 and isinstance(rule[0], str)
                for rule in rules)):
            raise ValidationError("algebra 'rules' must be [lhs, rhs] string pairs")
        if weights is not None and not isinstance(weights, dict):
            raise ValidationError("algebra 'weights' must be a JSON object")
        # the probe has no rules, so parsing keeps each right-hand word as written
        probe = AlgebraPresentation(gens, [], weights)
        parsed = [(tuple(lhs.split("*")), list(probe.parse(rhs).terms.items()))
                  for lhs, rhs in rules]
        pres = AlgebraPresentation(gens, parsed, weights)
        _check_overlaps(pres)
        return pres


class AlgebraElement:
    """Sparse normal-form linear combination of words; immutable by convention."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _add_multiple(out, other.terms, 1)
        return AlgebraElement(self.pres, out)

    def scale(self, c):
        c = exact(c)
        if not c:
            return self.pres.zero()
        return AlgebraElement(self.pres, {w: c * v for w, v in self.terms.items()})

    def __repr__(self):
        return "<%s>" % format_element(self)

    def _check(self, other):
        if self.pres is not other.pres:
            raise ValidationError("elements from different presentations")


def normal_form(word, pres):
    """Rewrite a word exhaustively to its normal-form element.

    Reduction picks the leftmost reducible pair each step.  The result does
    not depend on that choice when every overlap resolves, which
    ``from_json`` checks (``_check_overlaps``); a presentation built
    directly may skip the check.  The scan of a word rewritten at pair k
    resumes at k - 1, since the pairs left of k are unchanged and were not
    reducible: it finds the leftmost pair a scan from 0 finds, so the steps,
    their count and the order of the result's terms stay those of a full
    rescan.
    """
    word = tuple(word)
    cached = pres._nf_cache.get(word)
    if cached is not None:
        return AlgebraElement(pres, dict(cached))
    for g in word:
        if g not in pres.gen_index:
            raise ValidationError("unknown generator %r" % g)
    rules = pres.rules
    result = {}
    stack = [(word, 1, 0)]
    steps = 0
    while stack:
        w, c, start = stack.pop()
        for k in range(start, len(w) - 1):
            rhs = rules.get((w[k], w[k + 1]))
            if rhs is not None:
                steps += 1
                if steps > pres.step_budget:
                    raise StepBudgetExceeded(
                        "rewriting exceeded %d steps" % pres.step_budget)
                resume = max(k - 1, 0)
                for rw, rc in rhs:
                    stack.append((w[:k] + rw + w[k + 2:], c * rc, resume))
                break
        else:
            s = result.get(w, 0) + c
            if s:
                result[w] = s
            else:
                result.pop(w, None)
    if len(pres._nf_cache) < CACHE_CAP:
        pres._nf_cache[word] = dict(result)
    return AlgebraElement(pres, result)


def _check_overlaps(pres):
    """Raise ValidationError unless every overlap a*b*c of two left sides a*b
    and b*c has one normal form, whichever side is rewritten first.

    With every overlap resolved, a terminating system is confluent, so each
    word has one normal form (Bergman, Adv. Math. 29, 1978).  No static order
    proves termination (a rule may raise ``word_key``, as x*x -> w2 does, or
    the length, as y*y -> x*x*x does); the step budget still guards it.
    """
    for a, b in pres.rules:
        for (b2, c), rhs in pres.rules.items():
            if b2 != b:
                continue
            left = normal_form((a, b, c), pres)  # leftmost first: a*b
            right = pres.zero()
            for v, cv in rhs:
                right = right + normal_form((a,) + v, pres).scale(cv)
            if left != right:
                raise ValidationError(
                    "the rules are not confluent: %s rewrites to %s and to %s"
                    % ("*".join((a, b, c)), format_element(left), format_element(right)))


def multiply(a, b):
    """Product of two elements, bilinear over word concatenation."""
    a._check(b)
    pres = a.pres
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            _add_multiple(out, normal_form(wa + wb, pres).terms, exact(ca * cb))
    return AlgebraElement(pres, out)


def _linked_pairs(pres):
    """Left sides a*b of the rewrite rules other than a plain transposition
    a*b -> b*a."""
    return [(a, b) for (a, b), rhs in pres.rules.items() if rhs != [((b, a), 1)]]


class QuotientModule:
    """Cyclic left module A / (A*g1 + ... + A*gk) for generator ideals.

    Classes are represented by elements whose words avoid the ideal
    generators entirely, and every class comes from one table of generator
    actions on those basis words (``word_action``).  This is a well-defined
    linear section for the supported ideals, which covers the shipped
    presets: a rule between ideal generators must be a plain transposition
    b*a -> a*b, so any other rule on them (b*a -> 2*a*b, x*x -> w2, e*e -> e)
    is rejected.

    ``_action_cache`` maps (word u, basis word w) to the class of u*w, at
    most ``CACHE_CAP`` entries, so each action is computed only once.
    """

    def __init__(self, pres, ideal_gens):
        self.pres = pres
        self.ideal_gens = tuple(ideal_gens)
        for g in self.ideal_gens:
            if g not in pres.gen_index:
                raise UnsupportedIdeal("ideal generator %r is not an algebra generator" % g)
        gens = set(self.ideal_gens)
        for lhs in _linked_pairs(pres):
            if set(lhs) <= gens:
                raise UnsupportedIdeal(
                    "ideal generators are linked by the rule %s -> %s; only a plain "
                    "transposition b*a -> a*b may link them"
                    % ("*".join(lhs), format_sum((_format_word(w), c)
                                                 for w, c in pres.rules[lhs])))
        self._gen_set = gens
        self._basis_gens = tuple(g for g in pres.generators if g not in gens)
        self._action_cache = {}

    def reduce(self, a):
        """Canonical representative of ``a`` modulo the left ideal: the sum
        of the classes u*1 of its words u, off the action table."""
        if a.pres is not self.pres:
            raise ValidationError("element from a different presentation")
        out = {}
        for u, c in a.terms.items():
            _add_multiple(out, self._act(u, (), 0), c)
        return AlgebraElement(self.pres, out)

    def basis_words(self, max_degree):
        """Normal words avoiding the ideal generators, up to max_degree."""
        return self.pres._words(max_degree, self._basis_gens)

    def word_action(self, u, word):
        """The class of ``u * word`` (u a word, ``word`` a basis word) as terms
        over the basis words: the cached dict, not to be changed.

        A word acts one letter at a time, right to left, through the table
        of generator actions.  For w = h*r, the first case that applies is
          1. a rule g*h -> sum c_v v:  g*w = sum c_v (v*r);
          2. g is not an ideal generator:  g*w is a basis word;
          3. a rule h*g -> c (g*h) + sum c_v v, c != 0:
             g*w = (h*(g*r) - sum c_v (v*r)) / c;
          4. one trade step (``_trade``): w*g lies in A*g and
             nf(w*g) = a (g*w) + rest with a != 0, so g*w = -rest/a, each
             word of rest read through the table; a = 0 raises
             UnsupportedIdeal;
        and g*() is 0 for an ideal generator g, the word g otherwise.  An
        entry nested more than ``ACTION_DEPTH`` deep raises
        StepBudgetExceeded, so a cycle of trades or rules ends at once.
        Since the depth counts only entries not yet in the table, a call
        that breaches it fills the entries of u on the suffixes of ``word``,
        shortest first, and tries once more, so the class of a long word does
        not depend on what the table already holds.
        The terms come in the order the table sums them; nothing reads that
        order: echelons pivot by label and ``format_element`` sorts.
        """
        u = tuple(u)
        try:
            return self._act(u, word, 0)
        except StepBudgetExceeded:
            for k in range(len(word) - 1, 0, -1):
                self._act(u, word[k:], 0)
            return self._act(u, word, 0)

    def _act(self, u, w, depth):
        terms = self._action_cache.get((u, w))
        if terms is not None:
            return terms
        depth += 1
        rules, ideal = self.pres.rules, self._gen_set
        if depth > ACTION_DEPTH:
            raise StepBudgetExceeded("module action nested deeper than %d entries"
                                     % ACTION_DEPTH)
        if len(u) != 1:
            terms = self._apply(u, {w: 1}, depth)
        elif not w:
            terms = {} if u[0] in ideal else {u: 1}
        elif u + w[:1] in rules:  # case 1
            terms = {}
            for v, c in rules[u + w[:1]]:
                _add_multiple(terms, self._apply(v, {w[1:]: 1}, depth), c)
        elif u[0] not in ideal:  # case 2
            terms = {u + w: 1}
        else:
            h, r = w[:1], w[1:]
            rhs = rules.get(h + u, ())
            c = sum(cv for v, cv in rhs if v == u + h)
            if c:  # case 3
                terms = self._apply(h, self._act(u, r, depth), depth)
                for v, cv in rhs:
                    if v != u + h:
                        _add_multiple(terms, self._apply(v, {r: 1}, depth), -cv)
                if c != 1:
                    terms = {x: exact(Fraction(y) / c) for x, y in terms.items()}
            else:
                terms = self._trade(u + w, depth)
        if len(self._action_cache) < CACHE_CAP:
            self._action_cache[(u, w)] = terms
        return terms

    def _trade(self, word, depth):
        """Case 4, the class of ``word`` = g*w: w*g lies in A*g, and
        nf(w*g) = a*(g*w) + rest, so g*w has the class of -rest/a."""
        rest = normal_form(word[1:] + word[:1], self.pres).terms
        a = rest.pop(word, 0)
        if not a:
            raise UnsupportedIdeal("the ideal cannot reduce %s" % _format_word(word))
        terms = {}
        for v, c in rest.items():
            _add_multiple(terms, self._apply(v, {(): 1}, depth), exact(Fraction(-c) / a))
        return terms

    def _apply(self, v, vec, depth):
        """The class of v * vec for a word v and basis-word terms, a new dict."""
        for g in reversed(v):
            out = {}
            for w, c in vec.items():
                _add_multiple(out, self._act((g,), w, depth), c)
            vec = out
        return vec


# ---------------------------------------------------------------------------
# parsing / formatting

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# the grammar of ``parse_element``: factors, terms and whole elements
_FACTOR = re.compile(r"\s*(?:(\d+(?:/0*[1-9]\d*)?)|(%s)(?:\s*\^\s*(\d+))?)\s*"
                     % _NAME.pattern)
_TERM = r"%s(?:\*%s)*" % (_FACTOR.pattern, _FACTOR.pattern)
_ELEMENT = re.compile(r"(?:\s*-)?%s(?:[-+]%s)*" % (_TERM, _TERM))
_SIGNED_TERM = re.compile(r"([-+]?)(%s)" % _TERM)


def check_keys(data, allowed, what):
    """Reject the keys of a document object that are not in ``allowed``."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValidationError("unknown %s key %s" % (what, ", ".join(map(repr, unknown))))


def parse_element(pres, text):
    """Parse '2/3*x^2*Dy - x + 1' style expressions into an element.

    ``text`` must be terms joined by + or -, each a *-product of integers,
    fractions a/b (b > 0) and generators with an optional ^exponent; only
    the first term may carry a leading -, and "0" is zero.  Anything else,
    or a term whose word is longer than ``pres.step_budget`` generators,
    raises ValidationError naming ``text``.
    """
    if not isinstance(text, str):
        raise ValidationError("element %r is not a string" % (text,))
    if not _ELEMENT.fullmatch(text):
        raise ValidationError("cannot parse element %r: expected terms joined by + or "
                              "-, each a *-product of integers, fractions a/b with "
                              "b > 0 and generators with an optional ^exponent" % text)
    out = {}
    for term in _SIGNED_TERM.finditer(text):
        coeff, word = -1 if term[1] == "-" else 1, []
        for factor in term[2].split("*"):
            num, name, power = _FACTOR.fullmatch(factor).groups()
            try:
                if num:
                    coeff *= exact(num)
                    continue
                power = int(power or 1)
            except ValueError:  # past int's limit on decimal digits
                raise ValidationError("element %r has a number too long to read" % text)
            if len(word) + power > pres.step_budget:
                raise ValidationError("element %r has a word longer than %d generators"
                                      % (text, pres.step_budget))
            word += [name] * power
        _add_multiple(out, normal_form(word, pres).terms, exact(coeff))
    return AlgebraElement(pres, out)


def format_scalar(c):
    c = exact(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _format_word(word):
    if not word:
        return "1"
    parts = []
    k = 0
    while k < len(word):
        j = k
        while j < len(word) and word[j] == word[k]:
            j += 1
        parts.append(word[k] if j - k == 1 else "%s^%d" % (word[k], j - k))
        k = j
    return "*".join(parts)


def format_sum(pieces):
    """The signed sum of (body, coefficient) pairs in their order, "0" if there
    are none; a body "1" prints its coefficient alone."""
    out = []
    for body, c in pieces:
        mag = format_scalar(abs(c))
        piece = mag if body == "1" else body if mag == "1" else "%s*%s" % (mag, body)
        sign = ("" if c > 0 else "-") if not out else ("+ " if c > 0 else "- ")
        out.append(sign + piece)
    return " ".join(out) or "0"


def format_element(a):
    items = sorted(a.terms.items(), key=lambda wc: a.pres.word_key(wc[0]), reverse=True)
    return format_sum((_format_word(w), c) for w, c in items)


# ---------------------------------------------------------------------------
# presets

# Presentation documents of the built-in algebras: a Weyl algebra's rules sort
# its generators into the listed order, with D*v -> v*D + 1 for each
# derivation D and its variable v.
_ALGEBRAS = {
    "weyl2": {"generators": ["x", "y", "Dx", "Dy"],
              "rules": [["y*x", "x*y"], ["Dx*x", "x*Dx + 1"], ["Dx*y", "y*Dx"],
                        ["Dy*x", "x*Dy"], ["Dy*y", "y*Dy + 1"],
                        ["Dy*Dx", "Dx*Dy"]]},
    "weyl1": {"generators": ["x", "Dx"], "rules": [["Dx*x", "x*Dx + 1"]]},
    "poly1": {"generators": ["x"], "rules": []},
}


def preset_presentation(name):
    if name not in _ALGEBRAS:
        raise ValidationError("unknown algebra preset %r" % name)
    return AlgebraPresentation.from_json(_ALGEBRAS[name])
