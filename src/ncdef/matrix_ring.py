"""Free and formal matrix rings on typed generators, and their truncations.

A monomial of type (i, j) is a composable word x_{i i1}(l1) ... x_{i_{n-1} j}(ln)
in arrows (a, b, l); degree-0 monomials are the idempotents e_i.  Finite
dimensional pointed quotients of the free matrix ring by a two-sided ideal
together with all monomials of degree >= cutoff are built from a reduced
Gröbner basis of the ideal, by the diamond lemma (Bergman, Adv. Math. 29,
1978) for path algebras (Green, Prog. Math. 173, 1999).

The elimination order is static: lower degree first, then, within a degree,
the largest word under a fixed arrow key leads and is removed from the
basis; the tags of residual relation classes rank below every monomial.
The arrow key is (source, |source-target|, target, index): sorting arrows by
block distance before target makes the surviving bases of the shipped
truncations reproducible and matches the hand-picked bases of the flagship
example.  The generator table numbers the arrows once in this order, with
each arrow's successors, so words of arrow numbers order as monomial keys
do and every truncation and enumeration reuses that numbering.

This priority is a multiplicative local order on paths, so the leading word
of m * g * m' is m * LM(g) * m' whenever it lies below the cutoff, and
Buchberger completion ends on the finitely many words below it.  Each
overlap of two tips is resolved by its S-polynomial, an element whose tip
contains a newer tip is removed and reduced again, and words and overlaps
of length >= cutoff vanish.  The leading words of the ideal are the
multiples of the tips; the other monomials, the survivors, are closed under
divisors, so the survivors of degree d are the one-arrow extensions of
those of degree d - 1 that have no tip as a suffix, and no other free
monomial is ever formed (Mora, TCS 134, 1994; Ufnarovski, LMS LN 251,
1998).  Normal forms are unique, so the basis and products do not depend on
the order of the relations.

Each (survivor, arrow) word is reduced once; the product s * t of two
survivors folds t's arrows into s through that table, one arrow at a time.
The class of any monomial below the cutoff, the beta table, is the same
fold of its arrows through the products, made on demand, so no table of
monomials is stored.

A truncation extends one at a lower cutoff: when the lower one's rules
are homogeneous and they and its tag relations are unchanged, nothing below
its cutoff moves, so it is carried whole and only the new degrees are made;
otherwise the extension starts from nothing, the truncation at cutoff 0.

The bookkeeping ring of the order step carries tags: each nonzero truncated
series f enters the ideal as f - tag.  A tag times any arrow is zero, so
u * (f - tag) * v = u * f * v unless u and v are both units, which is
I*f + f*I; a remainder of tags alone relates the tags, and the tags that
pivot in the echelon of those relations leave the basis.

The order step collapses the tags of a bookkeeping ring by substitution:
each collapse vector is a tag plus monomials of its type of the top degree
cutoff - 1.  No products of tags are recorded and a top-degree monomial
times the radical passes the cutoff, so these vectors already span a
two-sided ideal, and the quotient is one echelon of them pushed into the
products.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .algebra import format_sum
from .errors import InconsistentRelations, InternalInvariantError, ValidationError
from .linalg import Echelon, _add_multiple, exact

RelTag = namedtuple("RelTag", ["i", "j", "l"])


def arrow_key(arrow):
    i, j, l = arrow
    return (i, abs(i - j), j, l)


class Monomial:
    """Composable word in matric generators; degree 0 words are idempotents."""

    __slots__ = ("i", "j", "arrows", "_key", "_hash")

    def __init__(self, i, j, arrows=()):
        arrows = tuple(arrows)
        if arrows:
            if arrows[0][0] != i or arrows[-1][1] != j:
                raise ValidationError("arrow word does not have type (%d, %d)" % (i, j))
            for a, b in zip(arrows, arrows[1:]):
                if a[1] != b[0]:
                    raise ValidationError("arrows %s and %s are not composable" % (a, b))
        elif i != j:
            raise ValidationError("degree-0 monomials are idempotents e_i")
        self.i = i
        self.j = j
        self.arrows = arrows
        self._key = (len(arrows), tuple(arrow_key(a) for a in arrows), (i, j))
        self._hash = hash(self._key)

    @staticmethod
    def idempotent(i):
        return Monomial(i, i, ())

    @staticmethod
    def from_arrows(arrows):
        arrows = tuple(arrows)
        if not arrows:
            raise ValidationError("use Monomial.idempotent for degree 0")
        return Monomial(arrows[0][0], arrows[-1][1], arrows)

    @property
    def degree(self):
        return len(self.arrows)

    @property
    def type(self):
        return (self.i, self.j)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key < other._key

    def __repr__(self):
        return format_monomial(self)


INCOMPATIBLE = None


def concat(m1, m2):
    """Juxtaposition m1 * m2, or None when the types do not compose."""
    if m1.j != m2.i:
        return INCOMPATIBLE
    if not m1.arrows:
        return m2
    if not m2.arrows:
        return m1
    return Monomial(m1.i, m2.j, m1.arrows + m2.arrows)


class GeneratorTable:
    """Arrow counts d_ij (degree-1 generators) and r_ij (relation labels).

    ``arrows`` lists the arrows in key order, ``number`` maps each to its
    place there and ``after[k]`` lists the arrows that can follow arrow k.
    """

    def __init__(self, p, d, r=None):
        self.p = p
        self.d = {pair: n for pair, n in dict(d).items() if n}
        self.r = {pair: n for pair, n in dict(r or {}).items() if n}
        for (i, j), n in list(self.d.items()) + list(self.r.items()):
            if not (1 <= i <= p and 1 <= j <= p) or n < 0:
                raise ValidationError("bad generator table entry (%d, %d): %d" % (i, j, n))
        self.arrows = sorted(((i, j, l) for (i, j), n in self.d.items()
                              for l in range(1, n + 1)), key=arrow_key)
        self.number = {a: k for k, a in enumerate(self.arrows)}
        self.after = [[k for k, b in enumerate(self.arrows) if b[0] == a[1]]
                      for a in self.arrows]

    def rel_tags(self):
        out = []
        for i in range(1, self.p + 1):
            for j in range(1, self.p + 1):
                for l in range(1, self.r.get((i, j), 0) + 1):
                    out.append(RelTag(i, j, l))
        return out


def monomials_of_degree(table, n):
    """Composable degree-n monomials in key order: a level in key order,
    each word extended in number order, is the next level in key order."""
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    if n == 0:
        return [Monomial.idempotent(i) for i in range(1, table.p + 1)]
    level = [(k,) for k in range(len(table.arrows))]
    for _ in range(n - 1):
        level = [w + (k,) for w in level for k in table.after[w[-1]]]
    return [Monomial.from_arrows([table.arrows[k] for k in w]) for w in level]


class MatricPoly:
    """Type-homogeneous rational combination of monomials."""

    def __init__(self, type, terms=None):
        self.type = tuple(type)
        self.terms = {}
        for m, c in (terms or {}).items():
            c = exact(c)
            if not c:
                continue
            if m.type != self.type:
                raise ValidationError("monomial %r has type %s, expected %s"
                                      % (m, m.type, self.type))
            self.terms[m] = c

    def is_zero(self):
        return not self.terms

    def min_degree(self):
        return min((m.degree for m in self.terms), default=0)

    def max_degree(self):
        return max((m.degree for m in self.terms), default=0)

    def add_term(self, m, c):
        terms = dict(self.terms)
        _add_multiple(terms, {m: c}, 1)
        return MatricPoly(self.type, terms)

    def __repr__(self):
        return "<%s>" % format_poly(self)


def format_arrow(arrow, table=None):
    i, j, l = arrow
    multi = table is not None and table.d.get((i, j), 0) > 1
    if i <= 9 and j <= 9 and l == 1 and not multi:
        return "x%d%d" % (i, j)
    return "x%d_%d_%d" % (i, j, l)


def format_monomial(m, table=None):
    if not m.arrows:
        return "e%d" % m.i
    return "*".join(format_arrow(a, table) for a in m.arrows)


def format_tag(tag, table=None):
    i, j, l = tag
    multi = table is not None and table.r.get((i, j), 0) > 1
    if i <= 9 and j <= 9 and l == 1 and not multi:
        return "y%d%d" % (i, j)
    return "y%d_%d_%d" % (i, j, l)


def format_poly(poly, table=None):
    items = sorted(poly.terms.items(), key=lambda mc: mc[0].key(), reverse=True)
    return format_sum((format_monomial(m, table), c) for m, c in items)


_ARROW_RE = re.compile(r"^x(?:(\d)(\d)|(\d+)_(\d+))(?:_(\d+))?$")
_IDEMPOTENT_RE = re.compile(r"^e(\d+)$")


def parse_monomial(text, p):
    """Parse 'e3' or 'x12*x24' style monomial names."""
    text = text.strip()
    idempotent = _IDEMPOTENT_RE.match(text)
    if idempotent:
        i = int(idempotent.group(1))
        if not 1 <= i <= p:
            raise ValidationError("idempotent %r outside 1..%d" % (text, p))
        return Monomial.idempotent(i)
    arrows = []
    for part in text.split("*"):
        m = _ARROW_RE.match(part.strip())
        if not m:
            raise ValidationError("cannot parse generator %r" % part)
        a, b, a2, b2, l = m.groups()
        i = int(a if a is not None else a2)
        j = int(b if b is not None else b2)
        if not (1 <= i <= p and 1 <= j <= p):
            raise ValidationError("generator %r outside 1..%d" % (part, p))
        arrows.append((i, j, int(l or 1)))
    return Monomial.from_arrows(arrows)


# ---------------------------------------------------------------------------
# truncated quotients

def label_sort_key(label):
    if isinstance(label, Monomial):
        return (0, label.key())
    return (1, label)


def label_type(label):
    if isinstance(label, Monomial):
        return label.type
    return (label.i, label.j)


class FiniteDimPointedAlgebra:
    """Finite dimensional pointed matrix algebra with explicit products.

    basis: labels (Monomials, possibly RelTags for residual relation classes)
    products: dict[(a_index, b_index)] -> sparse coords over basis indices

    Relations start in degree 2 and the order step's collapse removes only
    tags and monomials of the top degree cutoff - 1 >= 2, so every arrow
    below the cutoff is its own basis element.  No table of monomials is
    stored: the class of a monomial below the cutoff (the beta table) is its
    arrows multiplied through the products, on demand.
    """

    def __init__(self, p, basis, products, cutoff):
        self.p = p
        self.basis = list(basis)
        self.index = {b: k for k, b in enumerate(self.basis)}
        self.products = products
        self.cutoff = cutoff
        for i in range(1, p + 1):
            if Monomial.idempotent(i) not in self.index:
                raise InconsistentRelations("idempotent e%d was eliminated" % i)

    @property
    def dim(self):
        return len(self.basis)

    def monomial_basis(self):
        return [b for b in self.basis if isinstance(b, Monomial)]

    def basis_of_degree(self, n):
        return [b for b in self.basis if isinstance(b, Monomial) and b.degree == n]

    def tags(self):
        return [b for b in self.basis if isinstance(b, RelTag)]

    def expansion(self, mono):
        """Index coordinates of a monomial class over the basis (beta table)."""
        if mono.degree >= self.cutoff:
            return {}
        coords = {self.index[Monomial.idempotent(mono.i)]: 1}
        for arrow in mono.arrows:
            right = self.index.get(Monomial.from_arrows([arrow]))
            if right is None:
                raise ValidationError("the arrow %s of %r is not a basis element"
                                      % (arrow, mono))
            out = {}
            for a, ca in coords.items():
                _add_multiple(out, self.products.get((a, right), {}), ca)
            coords = out
        return coords

    def product(self, a_idx, b_idx):
        return self.products.get((a_idx, b_idx), {})


def _leading(word):
    """The elimination order on words of arrow numbers: the leader is largest."""
    return (-len(word), word)


def _occurs(part, word):
    n = len(part)
    return any(word[k:k + n] == part for k in range(len(word) - n + 1))


class _StandardBasis:
    """Reduced Gröbner basis of a two-sided ideal of a truncated path algebra.

    A positive-degree word is a tuple of the table's arrow numbers, and
    ``_leading`` is the elimination order on words.  Words of length >=
    cutoff are zero.  ``rules`` maps each tip, the leading word of a monic
    basis element, to the rest of that element as (words, tags): the tip
    rewrites to minus the rest.  A tag times any arrow is zero, so a rewrite
    inside a longer word drops the tags of the rest, and a remainder of tags
    alone is a relation among the tags, kept in the echelon ``tags``, where
    the largest tag pivots.
    """

    def __init__(self, table, cutoff):
        self.arrows, self.number, self.after = table.arrows, table.number, table.after
        self.cutoff = cutoff
        self.rules = {}
        self.longest = 0  # the length of the longest tip
        self.tags = Echelon()

    def word(self, mono):
        return tuple(self.number[a] for a in mono.arrows)

    def monomial(self, word):
        return Monomial.from_arrows([self.arrows[k] for k in word])

    def _tip_in(self, word):
        """(start, tip) of the leftmost shortest tip in ``word``, or None."""
        rules = self.rules
        n = len(word)
        for start in range(n - 1):
            for stop in range(start + 2, min(n, start + self.longest) + 1):
                if word[start:stop] in rules:
                    return start, word[start:stop]
        return None

    def has_tip_suffix(self, word):
        n = len(word)
        return any(word[start:] in self.rules
                   for start in range(max(0, n - self.longest), n - 1))

    def reduce(self, words, tags=()):
        """(words, tags) rewritten until no word holds a tip."""
        words = dict(words)
        tags = dict(tags)
        out = {}
        while words:
            word = max(words, key=_leading)
            c = words.pop(word)
            found = self._tip_in(word)
            if found is None:
                out[word] = c
                continue
            start, tip = found
            left, right = word[:start], word[start + len(tip):]
            rest, rest_tags = self.rules[tip]
            if left or right:
                room = self.cutoff - len(left) - len(right)
                rest = {left + w + right: v for w, v in rest.items() if len(w) < room}
            else:
                _add_multiple(tags, rest_tags, -c)
            _add_multiple(words, rest, -c)
        return out, tags

    def complete(self, elements):
        """Buchberger completion of the rules by elements (words, tags).

        Each element is reduced and made monic.  A rule whose tip holds the
        new tip is removed and its element queued again (an inclusion), and
        the S-polynomials of the new tip's overlaps with every tip are
        queued.  At the end each rest is reduced, so the basis is reduced.
        """
        queue = list(elements)
        while queue:
            words, tags = self.reduce(*queue.pop())
            if not words:
                if tags:
                    self.tags.add(tags)
                continue
            tip = max(words, key=_leading)
            lead = words.pop(tip)
            if lead != 1:
                words = {w: exact(Fraction(v, lead)) for w, v in words.items()}
                tags = {t: exact(Fraction(v, lead)) for t, v in tags.items()}
            for other in [other for other in self.rules if _occurs(tip, other)]:
                queue.append(self._remove(other))
            self.rules[tip] = (words, tags)
            self.longest = max(self.longest, len(tip))
            for other in list(self.rules):
                queue.extend(self._overlaps(tip, other))
                if other != tip:
                    queue.extend(self._overlaps(other, tip))
        for tip, (words, tags) in self.rules.items():
            words, tags = self.reduce(words, tags)
            self.rules[tip] = (words, self.tags.reduce(tags))

    def _remove(self, tip):
        """Drop a rule whose tip holds a newer tip; its element is reduced again."""
        words, tags = self.rules.pop(tip)
        self.longest = max(map(len, self.rules), default=0)
        words = dict(words)
        words[tip] = 1
        return words, tags

    def _overlaps(self, a, b):
        """S-polynomials (rest_a * C - A * rest_b, no tags) of a = A*B, b = B*C."""
        cutoff = self.cutoff
        rest_a = self.rules[a][0]
        rest_b = self.rules[b][0]
        out = []
        for k in range(max(1, len(a) + len(b) - cutoff + 1), min(len(a), len(b))):
            if a[len(a) - k:] != b[:k]:
                continue
            left, right = a[:len(a) - k], b[k:]
            s = {w + right: v for w, v in rest_a.items() if len(w) + len(right) < cutoff}
            _add_multiple(s, {left + w: v for w, v in rest_b.items()
                              if len(left) + len(w) < cutoff}, -1)
            out.append((s, {}))
        return out


class _Truncation(FiniteDimPointedAlgebra):
    """A truncation with what its extension to a higher cutoff carries.

    ``std`` is its completed standard basis and ``labels`` maps the word of
    each basis monomial of positive degree to that monomial.  An extension
    carries it whole when its rules are homogeneous and they and its tag
    relations hold unchanged there, and otherwise starts from nothing.  Its
    products and those of a carrying extension share their coordinate dicts,
    which no one changes.
    """

    def __init__(self, p, basis, products, cutoff, std, labels):
        super().__init__(p, basis, products, cutoff)
        self.std = std
        self.labels = labels

    @staticmethod
    def nothing(table):
        """The truncation at cutoff 0, where every extension can start."""
        return _Truncation(table.p, [Monomial.idempotent(i) for i in range(1, table.p + 1)],
                           {}, 0, _StandardBasis(table, 0), {})


def _truncation(table, relations, cutoff, previous):
    """Quotient by (f, tag) pairs and all words of degree >= cutoff, as the
    extension of ``previous``, a truncation of the same table at a lower
    cutoff (None: the one at cutoff 0).

    Each nonzero truncated f enters as f, or as f - tag when tagged, and the
    completion runs afresh, since a new series term changes the rules.  The
    survivors of degree d are the one-arrow extensions of those of degree
    d - 1 with no tip as a suffix.  Each (survivor, arrow) word that is no
    survivor is reduced once, and the product of survivors s * t folds t's
    arrows into s through those steps.  ``previous`` is carried whole when
    its rules below its cutoff and its tag relations are unchanged and its
    rules are homogeneous: then a product of degree d is a sum of words of
    degree d, nothing below the previous cutoff moves, and only the
    survivors, steps and products of the new degrees are made.  Otherwise
    the extension starts from nothing.
    """
    old = previous if previous is not None else _Truncation.nothing(table)
    if old.cutoff >= cutoff:
        raise InternalInvariantError("a truncation extends only to a higher cutoff")
    std = _StandardBasis(table, cutoff)
    elements = []
    tags = []
    for f, tag in relations:
        if f.is_zero():
            continue
        if f.min_degree() < 2:
            raise ValidationError("relations must have order >= 2")
        words = {std.word(m): c for m, c in f.terms.items() if m.degree < cutoff}
        if words:
            elements.append((words, {} if tag is None else {tag: -1}))
            if tag is not None:
                tags.append(tag)
    std.complete(elements)
    # below the previous cutoff nothing moves when the rules there (the only
    # tips that fit in its words) and the tag relations are the same and the
    # rules are homogeneous; otherwise the extension starts from nothing
    if (old.std.tags.rows != std.tags.rows
            or any(old.std.rules.get(tip) != std.rules.get(tip)
                   for tip in old.std.rules.keys() | std.rules.keys()
                   if len(tip) < old.cutoff)
            or any(len(w) != len(tip) for tip, (words, _) in old.std.rules.items()
                   for w in words)):
        old = _Truncation.nothing(table)

    p = table.p
    if old.cutoff > 1:
        labels = dict(old.labels)
        level = [w for w in labels if len(w) == old.cutoff - 1]
    else:
        level = [(k,) for k in range(len(std.arrows))] if cutoff > 1 else []
        labels = {w: std.monomial(w) for w in level}
    while level and len(level[0]) + 1 < cutoff:
        level = [w + (k,) for w in level for k in std.after[w[-1]]
                 if not std.has_tip_suffix(w + (k,))]
        labels.update((w, std.monomial(w)) for w in level)
    # levels of words in number order are in key order, so the basis is sorted
    basis = [Monomial.idempotent(i) for i in range(1, p + 1)]
    basis += labels.values()
    basis += sorted(t for t in tags if t not in std.tags.rows)
    index = {b: k for k, b in enumerate(basis)}
    position = {w: p + k for k, w in enumerate(labels)}

    # the products of the new degrees fold through the steps of words of
    # the previous top degree and above
    steps = {}
    for w, a in position.items():
        if len(w) + 1 >= cutoff:
            break
        if len(w) + 1 < old.cutoff:
            continue
        for k in std.after[w[-1]]:
            x = w + (k,)
            if x in position:
                steps[(a, k)] = {position[x]: 1}
                continue
            words, residual = std.reduce({x: 1})
            coords = {position[v]: c for v, c in words.items()}
            coords.update((index[t], c) for t, c in std.tags.reduce(residual).items())
            steps[(a, k)] = coords

    renumber = [index.get(label) for label in old.basis]
    if None in renumber:
        raise InternalInvariantError("a carried basis label is not in the extension")
    low = next((k for k, n in enumerate(renumber) if n != k), len(renumber))
    products = {}
    for (a, b), coords in old.products.items():
        if a < low and b < low and max(coords) < low:
            products[(a, b)] = coords
        else:
            coords = {renumber[k]: c for k, c in coords.items()}
            products[(renumber[a], renumber[b])] = coords

    # a tag times an arrow is zero, so no step starts at a tag
    degree = [0] * p + [len(w) for w in labels] + [0] * (len(basis) - len(position) - p)
    ends = list(range(1, p + 1)) + [std.arrows[w[-1]][1] for w in labels]
    starting = {i: [i - 1] for i in range(1, p + 1)}
    prefix = {}
    for w, b in position.items():
        i = std.arrows[w[0]][0]
        starting[i].append(b)
        prefix[b] = (position[w[:-1]] if len(w) > 1 else i - 1, w[-1])
    degrees = {i: [degree[b] for b in row] for i, row in starting.items()}
    for a in range(p + len(labels)):
        row = starting[ends[a]]
        first = bisect_left(degrees[ends[a]], old.cutoff - degree[a])
        for b in islice(row, first, None):
            if degree[a] + degree[b] >= cutoff:
                break
            if not degree[b]:
                coords = {a: 1}
            elif not degree[a]:
                coords = {b: 1}
            else:
                head, arrow = prefix[b]
                coords = {}
                for k, c in products.get((a, head), {}).items():
                    _add_multiple(coords, steps.get((k, arrow), {}), c)
            if coords:
                products[(a, b)] = coords
    return _Truncation(p, basis, products, cutoff, std, labels)


def build_quotient(table, relations, cutoff):
    """Quotient of the free matrix ring by relations plus all degree >= cutoff.

    Returns a FiniteDimPointedAlgebra whose basis is the surviving monomials;
    the class of an eliminated monomial (the beta table) is its expansion.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    return _truncation(table, [(f, None) for f in relations], cutoff, None)


def build_tagged_truncation(table, series, cutoff, previous=None):
    """Truncation of T1 / (I*f + f*I + I^cutoff) with tagged series classes.

    ``series`` maps RelTag -> MatricPoly.  Each nonzero truncated series
    joins the basis as a tagged vector identified with its residue class;
    the bookkeeping ring of the order step has exactly this mixed basis of
    monomials and truncated series.  ``previous``, a truncation of the same
    table at a lower cutoff, is carried whole when nothing below its cutoff
    changed, and otherwise the ring is built from nothing.
    """
    return _truncation(table, [(f, tag) for tag, f in series.items()], cutoff,
                       previous)


def quotient_by_vectors(algebra, vectors):
    """Quotient an algebra by the span of collapse vectors (index coordinates).

    Each vector must be a type-homogeneous combination of tags and monomials
    of the top degree cutoff - 1; such vectors already span a two-sided
    ideal.  The basis lists the tags last and the monomials of one degree
    by key, so the echelon's index order eliminates tag columns first, and
    the result has a monomial basis whenever possible.  A product that names
    no index at or above the lowest pivot is kept as it is, dict and all.
    """
    for vec in vectors:
        labels = [algebra.basis[k] for k in vec]
        if len({label_type(label) for label in labels}) > 1 or any(
                isinstance(label, Monomial) and label.degree != algebra.cutoff - 1
                for label in labels):
            raise InternalInvariantError(
                "collapse vector %s is not a type-homogeneous combination of "
                "tags and top-degree monomials" % (labels,))

    ech = Echelon()
    for vec in vectors:
        ech.add(vec)
    pivots = ech.pivots()
    keep = [k for k in range(algebra.dim) if k not in pivots]
    reindex = {k: n for n, k in enumerate(keep)}
    # below the lowest pivot nothing is eliminated or renumbered
    low = min(pivots, default=algebra.dim)

    products = {}
    for (a, b), coords in algebra.products.items():
        if a < low and b < low and max(coords) < low:
            products[(a, b)] = coords
            continue
        if a in pivots or b in pivots:
            continue
        pushed = {reindex[k]: c for k, c in ech.reduce(coords).items()}
        if pushed:
            products[(reindex[a], reindex[b])] = pushed
    return FiniteDimPointedAlgebra(algebra.p, [algebra.basis[k] for k in keep],
                                   products, algebra.cutoff)


def divisor_truncation(x, p):
    """The divisor algebra of x, whose monomials include x and its divisors.

    The quotient of the free ring on x's arrows (for each pair, indices 1 up
    to the largest one x uses) by all words past x's degree and the one-arrow
    extensions of divisors that are not divisors.  A word that is no divisor
    holds a shortest such word, an extension of a divisor, so a product of
    divisors is their concatenation when that divides x and 0 otherwise.  The
    only other survivors are words in the arrows x skips, which no defining
    system carries.
    """
    arrows = x.arrows
    divisors = {Monomial.from_arrows(arrows[k:m])
                for k in range(len(arrows)) for m in range(k + 1, len(arrows) + 1)}
    counts = {}
    for i, j, l in arrows:
        counts[(i, j)] = max(counts.get((i, j), 0), l)
    table = GeneratorTable(p, counts)
    letters = [Monomial.from_arrows([a]) for a in table.arrows]
    relations = [MatricPoly(w.type, {w: 1}) for d in divisors for a in letters
                 for w in (concat(d, a), concat(a, d))
                 if w is not None and w not in divisors]
    return build_quotient(table, relations, x.degree + 1)
