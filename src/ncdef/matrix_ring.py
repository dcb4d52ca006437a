"""Free and formal matrix rings on typed generators, and their truncations.

A monomial of type (i, j) is a composable word x_{i i1}(l1) ... x_{i_{n-1} j}(ln)
in arrows (a, b, l); degree-0 monomials are the idempotents e_i.  Finite
dimensional pointed quotients are built by exact Gaussian elimination of a
two-sided ideal together with all monomials of degree >= cutoff.

The elimination order is static: lower degree first, then, within a degree,
the largest word under a fixed arrow key is removed from the basis; the tags
of residual relation classes rank below every monomial.  The arrow key is
(source, |source-target|, target, index): sorting arrows by block distance
before target makes the surviving bases of the shipped truncations
reproducible and matches the hand-picked bases of the flagship example.

This priority is a multiplicative local order on paths, so the leading word
of m * g * m' is m * LM(g) * m' whenever it lies below the cutoff.  The
eliminated monomials are therefore closed under two-sided multiples, and the
surviving monomials form an order ideal: they are closed under divisors
(Mora, TCS 134, 1994; Ufnarovski, LMS LN 251, 1998).  For a fixed column
order the fully reduced echelon of a span does not depend on the order its
rows arrive in, so the basis and expansions are unique.

The order step collapses the tags of a bookkeeping ring by substitution:
each collapse vector is a tag plus monomials of its type of the top degree
cutoff - 1.  No products of tags are recorded and a top-degree monomial
times the radical passes the cutoff, so these vectors already span a
two-sided ideal, and the quotient is one echelon of them pushed into the
products and expansions.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import InconsistentRelations, InternalInvariantError, ValidationError
from .linalg import Echelon, exact

RelTag = namedtuple("RelTag", ["i", "j", "l"])


def arrow_key(arrow):
    i, j, l = arrow
    return (i, abs(i - j), j, l)


class Monomial:
    """Composable word in matric generators; degree 0 words are idempotents."""

    __slots__ = ("i", "j", "arrows", "_key")

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
        return hash(self._key)

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


def factorizations(x):
    """All splits (x1, x2) with x1 * x2 == x, including idempotent ends."""
    out = []
    arrows = x.arrows
    for k in range(len(arrows) + 1):
        left = arrows[:k]
        right = arrows[k:]
        mid = left[-1][1] if left else x.i
        out.append((Monomial(x.i, mid, left), Monomial(mid, x.j, right)))
    return out


def divisor_monomials(x):
    """Distinct positive-degree proper divisors of x, in key order."""
    seen = set()
    for size in range(1, len(x.arrows) + 1):
        for k in range(len(x.arrows) - size + 1):
            m = Monomial.from_arrows(x.arrows[k:k + size])
            if m != x:
                seen.add(m)
    return sorted(seen, key=Monomial.key)


class GeneratorTable:
    """Arrow counts d_ij (degree-1 generators) and r_ij (relation labels)."""

    def __init__(self, p, d, r=None):
        self.p = p
        self.d = {}
        self.r = {}
        for (i, j), n in dict(d).items():
            if n:
                self._check_pair(i, j, n)
                self.d[(i, j)] = n
        for (i, j), n in dict(r or {}).items():
            if n:
                self._check_pair(i, j, n)
                self.r[(i, j)] = n

    def _check_pair(self, i, j, n):
        if not (1 <= i <= self.p and 1 <= j <= self.p) or n < 0:
            raise ValidationError("bad generator table entry (%d, %d): %d" % (i, j, n))

    def arrows_from(self, i):
        out = []
        for j in range(1, self.p + 1):
            for l in range(1, self.d.get((i, j), 0) + 1):
                out.append((i, j, l))
        out.sort(key=arrow_key)
        return out

    def all_arrows(self):
        out = []
        for i in range(1, self.p + 1):
            out.extend(self.arrows_from(i))
        return out

    def rel_tags(self):
        out = []
        for i in range(1, self.p + 1):
            for j in range(1, self.p + 1):
                for l in range(1, self.r.get((i, j), 0) + 1):
                    out.append(RelTag(i, j, l))
        return out

    def to_json(self):
        return {
            "p": self.p,
            "ext1": [[self.d.get((i, j), 0) for j in range(1, self.p + 1)]
                     for i in range(1, self.p + 1)],
            "ext2": [[self.r.get((i, j), 0) for j in range(1, self.p + 1)]
                     for i in range(1, self.p + 1)],
        }


def monomials_of_degree(table, n):
    """Composable degree-n monomials in key order."""
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    if n == 0:
        return [Monomial.idempotent(i) for i in range(1, table.p + 1)]
    words = []

    def extend(prefix, at):
        if len(prefix) == n:
            words.append(Monomial.from_arrows(prefix))
            return
        for arrow in table.arrows_from(at):
            extend(prefix + [arrow], arrow[1])

    for i in range(1, table.p + 1):
        extend([], i)
    words.sort(key=Monomial.key)
    return words


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
        s = terms.get(m, 0) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
        return MatricPoly(self.type, terms)

    def truncate(self, max_degree):
        return MatricPoly(self.type, {m: c for m, c in self.terms.items()
                                      if m.degree <= max_degree})

    def __eq__(self, other):
        return (isinstance(other, MatricPoly) and self.type == other.type
                and self.terms == other.terms)

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
    if not poly.terms:
        return "0"
    items = sorted(poly.terms.items(), key=lambda mc: mc[0].key(), reverse=True)
    out = []
    for m, c in items:
        mag = abs(c)
        body = format_monomial(m, table)
        piece = body if mag == 1 else "%s*%s" % (mag, body)
        if not out:
            out.append(piece if c > 0 else "-" + piece)
        else:
            out.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(out)


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
    return (1, (label.i, label.j, label.l))


def label_type(label):
    if isinstance(label, Monomial):
        return label.type
    return (label.i, label.j)


class FiniteDimPointedAlgebra:
    """Finite dimensional pointed matrix algebra with explicit products.

    basis: labels (Monomials, possibly RelTags for residual relation classes)
    products: dict[(a_index, b_index)] -> sparse coords over basis indices
    expansion: Monomial -> index coords, for all monomials below the cutoff
    """

    def __init__(self, p, basis, products, expansion, cutoff):
        self.p = p
        self.basis = list(basis)
        self.index = {b: k for k, b in enumerate(self.basis)}
        self.products = products
        self._expansion = expansion
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
        coords = self._expansion.get(mono)
        if coords is None:
            raise ValidationError("no expansion stored for %r" % mono)
        return coords

    def product(self, a_idx, b_idx):
        return self.products.get((a_idx, b_idx), {})


def _elimination_priority(col):
    """Static pivot priority: tags below monomials, then lower degree first."""
    if isinstance(col, RelTag):
        return (0, col)
    return (1, -col.degree, col.key())


def _eliminate(rows):
    elim = Echelon(priority=_elimination_priority)
    for row in rows:
        elim.add(row)
    return elim


def _ideal_rows(table, relations, cutoff, exclude_unit=False):
    """Truncations of all products m * f * m' with degree < cutoff support."""
    rows = []
    for f in relations:
        if f.is_zero():
            continue
        if f.min_degree() < 2:
            raise ValidationError("relations must have order >= 2")
        fi, fj = f.type
        room = cutoff - 1 - f.min_degree()
        if room < 0:
            continue
        lefts = [m for d in range(0, room + 1)
                 for m in monomials_of_degree(table, d) if m.j == fi]
        rights = [m for d in range(0, room + 1)
                  for m in monomials_of_degree(table, d) if m.i == fj]
        for ml in lefts:
            for mr in rights:
                if exclude_unit and ml.degree + mr.degree == 0:
                    continue
                if ml.degree + f.min_degree() + mr.degree >= cutoff:
                    continue
                row = {}
                for mono, c in f.terms.items():
                    full = concat(concat(ml, mono), mr)
                    if full.degree < cutoff:
                        row[full] = row.get(full, 0) + c
                row = {m: c for m, c in row.items() if c}
                if row:
                    rows.append(row)
    return rows


def _assemble(table, cutoff, elim, extra_tags):
    all_monos = [m for d in range(cutoff) for m in monomials_of_degree(table, d)]
    pivots = elim.pivots()
    for piv in pivots:
        if isinstance(piv, Monomial) and piv.degree == 0:
            raise InconsistentRelations("a relation forces an idempotent to vanish")
    basis = [m for m in all_monos if m not in pivots]
    basis += [t for t in extra_tags if t not in pivots]
    basis.sort(key=label_sort_key)
    index = {b: k for k, b in enumerate(basis)}
    exp_label = {}
    for m in all_monos:
        if m in pivots:
            exp_label[m] = elim.reduce({m: 1})
        else:
            exp_label[m] = {m: 1}
    expansion = {m: {index[c]: v for c, v in e.items()} for m, e in exp_label.items()}
    products = {}
    for a, la in enumerate(basis):
        for b, lb in enumerate(basis):
            if isinstance(la, RelTag) or isinstance(lb, RelTag):
                continue
            m = concat(la, lb)
            if m is INCOMPATIBLE or m.degree >= cutoff:
                continue
            coords = expansion[m]
            if coords:
                products[(a, b)] = coords
    return FiniteDimPointedAlgebra(table.p, basis, products, expansion,
                                   cutoff=cutoff)


def build_quotient(table, relations, cutoff):
    """Quotient of the free matrix ring by relations plus all degree >= cutoff.

    Returns a FiniteDimPointedAlgebra whose basis is the surviving monomials;
    expansions of eliminated monomials give the beta coefficient table.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    elim = _eliminate(_ideal_rows(table, relations, cutoff))
    return _assemble(table, cutoff, elim, [])


def _tagged_rows(table, series, cutoff):
    """Ideal rows, then a row f - tag per nonzero truncated series; and tags."""
    relations = [f for f in series.values() if not f.is_zero()]
    rows = _ideal_rows(table, relations, cutoff, exclude_unit=True)
    tags = []
    for tag in sorted(series, key=lambda t: (t.i, t.j, t.l)):
        f = series[tag].truncate(cutoff - 1)
        if f.is_zero():
            continue
        vec = dict(f.terms)
        vec[tag] = -1
        rows.append(vec)
        tags.append(tag)
    return rows, tags


def build_tagged_truncation(table, series, cutoff):
    """Truncation of T1 / (I*f + f*I + I^cutoff) with tagged series classes.

    ``series`` maps RelTag -> MatricPoly.  Each nonzero truncated series
    joins the basis as a tagged vector identified with its residue class;
    the bookkeeping ring of the order step has exactly this mixed basis of
    monomials and truncated series.
    """
    rows, tags = _tagged_rows(table, series, cutoff)
    return _assemble(table, cutoff, _eliminate(rows), tags)


def quotient_by_vectors(algebra, vectors):
    """Quotient an algebra by the span of collapse vectors (index coordinates).

    Each vector must be a type-homogeneous combination of tags and monomials
    of the top degree cutoff - 1; such vectors already span a two-sided
    ideal.  Tag columns are eliminated first so the result has a monomial
    basis whenever possible.
    """
    for vec in vectors:
        labels = [algebra.basis[k] for k in vec]
        if len({label_type(label) for label in labels}) > 1 or any(
                isinstance(label, Monomial) and label.degree != algebra.cutoff - 1
                for label in labels):
            raise InternalInvariantError(
                "collapse vector %s is not a type-homogeneous combination of "
                "tags and top-degree monomials" % (labels,))

    def priority(col):
        label = algebra.basis[col]
        if isinstance(label, RelTag):
            return (1, 0, (0,), (label.i, label.j, label.l))
        return (0, -label.degree, label.key(), (0, 0, 0))

    ech = Echelon(priority=priority)
    for vec in vectors:
        if vec:
            ech.add(dict(vec))
    pivots = ech.pivots()
    keep = [k for k in range(algebra.dim) if k not in pivots]
    reindex = {k: n for n, k in enumerate(keep)}

    def push(coords):
        return {reindex[k]: c for k, c in ech.reduce(coords).items()}

    products = {}
    for (a, b), coords in algebra.products.items():
        if a in pivots or b in pivots:
            continue
        pushed = push(dict(coords))
        if pushed:
            products[(reindex[a], reindex[b])] = pushed
    expansion = {m: push(dict(coords)) for m, coords in algebra._expansion.items()}
    return FiniteDimPointedAlgebra(algebra.p, [algebra.basis[k] for k in keep],
                                   products, expansion, algebra.cutoff)


def divisor_truncation(x, p):
    """Pointed algebra with basis the idempotents, the divisors of x and x.

    Products follow concatenation: z = left * right for each factorization
    of a basis monomial z, and products that do not divide x vanish.
    """
    basis = [Monomial.idempotent(i) for i in range(1, p + 1)]
    basis += divisor_monomials(x) + [x]
    basis.sort(key=label_sort_key)
    index = {b: k for k, b in enumerate(basis)}
    products = {(index[left], index[right]): {index[z]: 1}
                for z in basis for left, right in factorizations(z)}
    expansion = {m: {index[m]: 1} for m in basis}
    return FiniteDimPointedAlgebra(p, basis, products, expansion,
                                   cutoff=x.degree + 1)
