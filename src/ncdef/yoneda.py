"""Free resolutions, the Yoneda complex, and truncated Ext computation.

Free modules are row-vector modules: a map L -> L' of ranks (r, r') is right
multiplication by an r x r' matrix over the algebra.  A degree-n cochain
from the resolution of M_j to that of M_i has components
phi_m : L_{m+n, j} -> L_{m, i}, and the differential is

    d(phi)_m = phi_m . d_{n+m, j} + (-1)^(n+1) d_{m, i} . phi_{m+1}

which in right-multiplication matrices reads
D_{n+m,j} * phi_m + (-1)^(n+1) phi_{m+1} * D_{m,i}: the Yoneda products
compose(phi, delta_j) + (-1)^(n+1) compose(delta_i, phi), where delta_i is
the differentials of M_i as a 1-cochain and ``compose_cochains``, for any
degrees, has components inner_{m+p} * outer_m with p the degree of outer.

Ext^n(M_j, M_i) is computed from the complex Hom(L_{*,j}, M_i) with all
module coefficients truncated at a filtration degree B: cocycles are taken
with entries of degree <= B while coboundaries come from potentials of
degree <= B + BOUNDARY_SLACK, and the resulting dimension must be stable
at B and B + 1.  The images come from the modules' action tables
(``QuotientModule.word_action``), each computed once.  Every count comes
from one rank profile per differential and pair (i, j), an echelon that
takes the coordinates bound by bound; only the groups with classes build
the window echelon that their representatives are reduced against, from
the rows of their potentials' profile that pivot inside the window.
``hom_classes`` picks the classes of each group; only an Ext basis
(``ext_basis``) lifts them through the projectives to Yoneda cochains by
bounded-degree solves, so ``ncdef ext``, which prints dimensions, lifts
nothing.

Every bounded-degree solve -- the lifts here, coboundary primitives and
Ext^2 projections below, and the equivalence intertwiners of the checker --
takes the rungs of ``RunOptions.ladder`` as its one bound argument and
follows one path: for each rung it builds a ``SparseSystem``, solves it
with ``solve_sparse``, turns the solution into matrix entries with
``decode_entries`` and verifies the result exactly.
The lifts and the cochain equations take every right-hand side that
shares their operator (all lifts through one differential of one source
module, the obstructions of one type): each rung builds and eliminates the
operator once, with one augmented column per right-hand side still
pending, and a right-hand side whose solution fails there, or fails the
exact check, moves on to the next rung.  Each gets the solution it would
get alone.  Their rungs build only the components of the operator that
the pending right-hand sides reach under ``AlgebraPresentation.word_class``
(``_reached_system``): the other components can only solve to zero.  The
checker still builds its whole operator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .algebra import QuotientModule, multiply
from .errors import (NotACoboundary, NotStabilized, ProjectionFailed, ShapeMismatch,
                     SolverBoundError, ValidationError)
from .linalg import Echelon, kernel_basis, solve_sparse, vec_scale

BOUNDARY_SLACK = 2


class Mat:
    """Sparse matrix with AlgebraElement entries and an explicit shape."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ShapeMismatch("entry (%d, %d) outside %dx%d" % (r, c, nrows, ncols))
            if not v.is_zero():
                self.entries[(r, c)] = v

    @staticmethod
    def from_rows(rows, pres):
        """The matrix a document writes as a list of rows of element strings,
        all of one length; any other shape raises ValidationError."""
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValidationError("a matrix must be a list of rows of element strings")
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValidationError("ragged matrix rows")
        return Mat(len(rows), ncols, {(r, c): pres.parse(text)
                                      for r, row in enumerate(rows)
                                      for c, text in enumerate(row)})

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def get(self, r, c):
        return self.entries.get((r, c))

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("adding %dx%d to %dx%d"
                                % (self.nrows, self.ncols, other.nrows, other.ncols))
        out = dict(self.entries)
        for rc, v in other.entries.items():
            s = out[rc] + v if rc in out else v
            if s.is_zero():
                out.pop(rc, None)
            else:
                out[rc] = s
        return Mat(self.nrows, self.ncols, out)

    def scale(self, c):
        return Mat(self.nrows, self.ncols,
                   {rc: v.scale(c) for rc, v in self.entries.items()})

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatch("multiplying %dx%d by %dx%d"
                                % (self.nrows, self.ncols, other.nrows, other.ncols))
        out = {}
        for (r, t), a in self.entries.items():
            for (t2, c), b in other.entries.items():
                if t2 != t:
                    continue
                prod = multiply(a, b)
                if (r, c) in out:
                    prod = out[(r, c)] + prod
                if prod.is_zero():
                    out.pop((r, c), None)
                else:
                    out[(r, c)] = prod
        return Mat(self.nrows, other.ncols, out)

    def __repr__(self):
        return "Mat(%dx%d, %r)" % (self.nrows, self.ncols, self.entries)


class FreeResolution:
    """Free resolution of a cyclic module A / (left ideal of generators).

    ranks[m] is the rank of L_m; diffs[m] is the right-multiplication matrix
    of d_m : L_{m+1} -> L_m.  Consecutive differentials must compose to
    zero, checked symbolically on construction.
    """

    def __init__(self, pres, ideal_gens, ranks, diffs):
        if not ranks or ranks[0] != 1:
            raise ValidationError("cyclic module resolutions start with L_0 = A")
        if len(ranks) < 2 or len(diffs) != len(ranks) - 1:
            raise ValidationError("need d_0 : L_1 -> L_0 and exactly one "
                                  "differential per adjacent pair")
        self.pres = pres
        self.module = QuotientModule(pres, ideal_gens)
        self.ranks = list(ranks)
        self.diffs = []
        for m, d in enumerate(diffs):
            if not isinstance(d, Mat):
                d = Mat.from_rows(d, pres)
            if (d.nrows, d.ncols) != (self.ranks[m + 1], self.ranks[m]):
                raise ValidationError("differential %d has shape %dx%d, expected %dx%d"
                                      % (m, d.nrows, d.ncols,
                                         self.ranks[m + 1], self.ranks[m]))
            self.diffs.append(d)
        for m in range(len(self.diffs) - 1):
            if not self.diffs[m + 1].mul(self.diffs[m]).is_zero():
                raise ValidationError(
                    "differentials %d and %d do not compose to zero" % (m, m + 1))
        # augmentation sanity: rows of d_0 must die in the module
        for v in self.diffs[0].entries.values():
            if not self.module.reduce(v).is_zero():
                raise ValidationError("d_0 does not map into the ideal")

    @property
    def mmax(self):
        return len(self.ranks) - 1

    def rank(self, m):
        if 0 <= m < len(self.ranks):
            return self.ranks[m]
        return 0

    def diff(self, m):
        if 0 <= m < len(self.diffs):
            return self.diffs[m]
        return Mat(self.rank(m + 1), self.rank(m))


class ResolutionBundle:
    """The fixed family of resolutions and their common length mmax (>= 2).

    The resolutions are not modified: past its own length a resolution's
    ranks and differentials read as zero through ``rank`` and ``diff``.
    """

    def __init__(self, pres, resolutions):
        self.pres = pres
        self.resolutions = dict(enumerate(resolutions, start=1))
        self.p = len(resolutions)
        self.mmax = max(max(res.mmax for res in resolutions), 2)
        self._differentials = {
            i: Cochain(self, 1, i, i, [res.diff(m) for m in range(self.mmax)])
            for i, res in self.resolutions.items()}

    def res(self, i):
        return self.resolutions[i]

    def zero_cochain(self, n, i, j):
        mats = tuple(Mat(self.res(j).rank(m + n), self.res(i).rank(m))
                     for m in range(self.mmax - n + 1))
        return Cochain(self, n, i, j, mats)

    def differential_cochain(self, i):
        """The resolution differentials of M_i packaged as a 1-cochain, built once."""
        return self._differentials[i]


class Cochain:
    """Element of Hom^n from the resolution of M_j to the resolution of M_i."""

    __slots__ = ("bundle", "degree", "i", "j", "mats")

    def __init__(self, bundle, degree, i, j, mats):
        self.bundle = bundle
        self.degree = degree
        self.i = i
        self.j = j
        self.mats = tuple(mats)
        expected = bundle.mmax - degree + 1
        if len(self.mats) != max(expected, 0):
            raise ShapeMismatch("degree-%d cochain needs %d components, got %d"
                                % (degree, expected, len(self.mats)))
        for m, mat in enumerate(self.mats):
            want = (bundle.res(j).rank(m + degree), bundle.res(i).rank(m))
            if (mat.nrows, mat.ncols) != want:
                raise ShapeMismatch("component %d has shape %dx%d, expected %dx%d"
                                    % (m, mat.nrows, mat.ncols, want[0], want[1]))

    @property
    def type(self):
        return (self.i, self.j)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def add(self, other):
        self._compat(other)
        return Cochain(self.bundle, self.degree, self.i, self.j,
                       tuple(a.add(b) for a, b in zip(self.mats, other.mats)))

    def scale(self, c):
        return Cochain(self.bundle, self.degree, self.i, self.j,
                       tuple(m.scale(c) for m in self.mats))

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.type == other.type and self.mats == other.mats)

    def _compat(self, other):
        if (self.degree, self.type) != (other.degree, other.type):
            raise ShapeMismatch("cochain degree/type mismatch")

    def __repr__(self):
        return "Cochain(n=%d, type=(%d,%d))" % (self.degree, self.i, self.j)


def yoneda_differential(phi):
    """The Yoneda complex differential of a cochain, as a sum of two products."""
    bundle = phi.bundle
    sign = -1 if (phi.degree + 1) % 2 else 1
    return compose_cochains(phi, bundle.differential_cochain(phi.j)).add(
        compose_cochains(bundle.differential_cochain(phi.i), phi).scale(sign))


def is_cocycle(phi):
    return yoneda_differential(phi).is_zero()


def compose_cochains(outer, inner):
    """Yoneda product: outer of type (i,t) and degree p after inner of (t,j).

    Component m of the result, of degree p + inner.degree, is inner_{m+p} *
    outer_m; two 1-cochains give the monomial (outer arrow)(inner arrow).
    """
    if outer.j != inner.i:
        raise ShapeMismatch("types (%d,%d) and (%d,%d) do not compose"
                            % (outer.i, outer.j, inner.i, inner.j))
    bundle = outer.bundle
    p = outer.degree
    n = p + inner.degree
    mats = [inner.mats[m + p].mul(outer.mats[m]) for m in range(bundle.mmax - n + 1)]
    return Cochain(bundle, n, outer.i, inner.j, mats)


# ---------------------------------------------------------------------------
# Ext via the truncated Hom complex

class ExtComputer:
    """Dimensions and Yoneda representatives of Ext^1 and Ext^2; the lifts
    try each bound of ``ladder``, and the first bounds the Hom complex."""

    def __init__(self, bundle, ladder):
        self.bundle = bundle
        self.ladder = ladder
        self.degree_bound = ladder[0]
        self._dim_cache = {}

    # -- Hom complex plumbing -------------------------------------------

    def _coords(self, i, j, m, bound):
        """Coordinate labels of Hom(L_{m,j}, M_i) truncated at degree bound."""
        res_j = self.bundle.res(j)
        words = self.bundle.res(i).module.basis_words(bound)
        return [(r, w) for r in range(res_j.rank(m)) for w in words]

    def _images(self, i, j, m, labels):
        """{label: image under d_m} of Hom(L_{m,j}, M_i) coordinates (row, word).

        The image of (t, w) sums c * (u * w) over the terms c*u of the
        entries in column t of d_m, from the module's action table.
        """
        module = self.bundle.res(i).module
        column = {}
        for (s, t), a in self.bundle.res(j).diff(m).entries.items():
            column.setdefault(t, []).extend((s, u, c) for u, c in a.terms.items())
        out = {}
        for t, w in labels:
            image = {}
            for s, u, c in column.get(t, ()):
                for w2, c2 in module.word_action(u, w).items():
                    key = (s, w2)
                    val = image.get(key, 0) + c * c2
                    if val:
                        image[key] = val
                    else:
                        image.pop(key, None)
            out[(t, w)] = image
        return out

    def _rank_profile(self, i, j, m, bounds):
        """The (pivot, row) pairs of d_m's echelon on the Hom(L_{m,j}, M_i)
        coordinates, {bound: their number at degree <= bound} for each
        ascending bound, and the images at the last bound.

        One echelon takes the coordinates of the first bound, then each
        later bound's new ones, in ``_coords`` order.  Rows never change
        once stored, so a bound's rows are the first ones; their number is
        the rank.  The echelon's columns are (degree, row, word), so a pivot
        is its row's column of highest degree, and the rows pivoting at
        degree <= k span the images inside degree k.
        """
        degree = self.bundle.pres.word_degree
        module = self.bundle.res(i).module
        rank = self.bundle.res(j).rank(m)
        images = self._images(i, j, m, self._coords(i, j, m, bounds[-1]))
        # a bound's words are a prefix of the last bound's
        words = module.basis_words(bounds[-1])
        ech = Echelon()
        added, counts = 0, {}
        for bound in bounds:
            upto = len(module.basis_words(bound))
            for r in range(rank):
                for w in words[added:upto]:
                    if images[(r, w)]:
                        ech.add({(degree(w2), s, w2): c
                                 for (s, w2), c in images[(r, w)].items()})
            added = upto
            counts[bound] = len(ech.rows)
        return list(ech.rows.items()), counts, images

    def ext_dimension(self, i, j, n):
        """dim Ext^n(M_j, M_i), stable at B and B + 1."""
        if n not in (1, 2):
            raise ValidationError("ext_dimension computes n = 1 or 2")
        if (i, j, n) not in self._dim_cache:
            self._rank_profiles(i, j)
        return self._stable_dimension(i, j, n)

    def _stable_dimension(self, i, j, n):
        low, high = self._dim_cache[(i, j, n)]
        if low != high:
            raise NotStabilized(
                "Ext^%d(M%d, M%d) is %d at bound %d but %d at bound %d"
                % (n, j, i, low, self.degree_bound, high, self.degree_bound + 1))
        return low

    def _rank_profiles(self, i, j):
        """{m: rank profile of d_m} for m = 0, 1, 2, recording the counts of
        Ext^1(M_j, M_i) and Ext^2(M_j, M_i) at the degree bound B and B + 1.

        One rank profile per differential d_m (``_rank_profile``) gives
        every count.  The cocycles at bound k number the coordinates at k
        less the rank of d_n there.  The boundaries inside the window W of
        degree <= k are V n W for the image V of the potentials at
        k + BOUNDARY_SLACK, and the rows of the d_{n-1} profile there that
        pivot inside W are a basis of V n W.  So the d_1 profile, over
        B ... B + 1 + BOUNDARY_SLACK, serves the Ext^1 cocycles and Ext^2
        boundaries.
        """
        bound, slack = self.degree_bound, BOUNDARY_SLACK
        windows = (bound, bound + 1)
        potentials = tuple(k + slack for k in windows)
        profiles = {m: self._rank_profile(i, j, m, bounds) for m, bounds in (
            (0, potentials), (1, sorted({*windows, *potentials})), (2, windows))}
        module, rank = self.bundle.res(i).module, self.bundle.res(j).rank
        for n in (1, 2):
            (rows, counts), ranks = profiles[n - 1][:2], profiles[n][1]
            self._dim_cache[(i, j, n)] = tuple(
                rank(n) * len(module.basis_words(k)) - ranks[k]
                - sum(d <= k for (d, _, _), _ in rows[:counts[k + slack]])
                for k in windows)
        return profiles

    def _hom_groups(self, i, j):
        """(n, dim, boundaries, images) for Ext^n(M_j, M_i), n = 1, 2: its
        dimension, stable at the degree bound B and B + 1; and, when the
        dimension is not 0, its boundary echelon at B and the images of the
        Hom(L_{n,j}, M_i) coordinates at B, else None for both.
        """
        profiles = self._rank_profiles(i, j)
        bound = self.degree_bound
        out = []
        for n in (1, 2):
            dim = self._stable_dimension(i, j, n)
            boundaries = coords = None
            if dim:
                rows, counts = profiles[n - 1][:2]
                boundaries = self._boundary_echelon(
                    bound, rows[:counts[bound + BOUNDARY_SLACK]])
                images = profiles[n][2]
                coords = {lab: images[lab] for lab in self._coords(i, j, n, bound)}
            out.append((n, dim, boundaries, coords))
        return out

    # -- representatives --------------------------------------------------

    def _boundary_echelon(self, bound, rows):
        """Echelon of the boundaries supported inside the bound-B window.

        ``rows`` are the (pivot, row) pairs of the potentials' rank profile
        at bound + BOUNDARY_SLACK (``_rank_profile``).  Those pivoting inside
        the window span (image intersect window), and only they go into an
        echelon over the Hom coordinates (row, word), so ``len(rows)`` is the
        boundary dimension in the window.
        """
        ech = Echelon()
        for (d, _, _), row in rows:
            if d <= bound:
                ech.add({(s, w): c for (_, s, w), c in row.items()})
        return ech

    def _hom_representatives(self, images, dim, boundaries):
        """``dim`` cocycles independent modulo ``boundaries``, from the kernel
        of the coordinate ``images`` at the degree bound."""
        if dim == 0:
            return []
        kernel = kernel_basis(list(images.values()), tags=list(images))
        chosen = []
        chosen_ech = Echelon()
        for vec in kernel:
            resid = boundaries.reduce(vec)
            resid = chosen_ech.reduce(resid)
            if resid:
                lead = min(resid, key=lambda lab: (
                    self.bundle.pres.word_degree(lab[1]), lab[1], lab[0]))
                resid = vec_scale(resid, Fraction(1, resid[lead]))
                chosen.append(resid)
                chosen_ech.add(dict(resid))
            if len(chosen) == dim:
                break
        if len(chosen) != dim:
            raise NotStabilized("representative count %d below certified dim %d"
                                % (len(chosen), dim))
        return chosen

    def _lift_to_yoneda(self, i, groups):
        """Lift Hom-complex cocycles to Yoneda cochains through L_{*,i}.

        ``groups`` lists (j, n, cocycles) of Ext^n(M_j, M_i); returns the
        lifts of each group.  Step m of a degree-n lift solves
        phi_{m+1} * D_{m,i} = -sign * D_{n+m,j} * phi_m for an unknown of
        shape rank_j(n+m+1) x rank_i(m+1).  The operator, right
        multiplication by D_{m,i} on that shape, is the same for every lift
        of that shape, so at each step they go through one solve.
        """
        bundle = self.bundle
        res_i = bundle.res(i)
        pres = bundle.pres
        lifts = []  # per group, the components so far of each lift
        for j, n, hom_vecs in groups:
            group = []
            for hom_vec in hom_vecs:
                phi0 = {}
                for (r, w), c in hom_vec.items():
                    key = (r, 0)
                    cur = phi0.get(key, pres.zero())
                    phi0[key] = cur + pres.element({w: c})
                group.append([Mat(bundle.res(j).rank(n), res_i.rank(0), phi0)])
            lifts.append(group)
        for m in range(bundle.mmax):
            ncols = res_i.rank(m + 1)
            batches = {}  # unknown row count -> (j, n, components) taking step m
            for (j, n, _), group in zip(groups, lifts):
                if m < bundle.mmax - n:
                    batches.setdefault(bundle.res(j).rank(n + m + 1), []).extend(
                        (j, n, mats) for mats in group)
            for nrows, batch in batches.items():
                if nrows == 0 or ncols == 0 or res_i.rank(m) == 0:
                    sols = [Mat(nrows, ncols) for _ in batch]
                else:
                    # -sign = (-1)^n, with sign = (-1)^(n+1) as in d(phi)
                    rhss = [bundle.res(j).diff(n + m).mul(mats[m]).scale((-1) ** n)
                            for j, n, mats in batch]
                    sols = self._solve_unknown_times_known(nrows, ncols,
                                                           res_i.diff(m), rhss)
                for (_, _, mats), sol in zip(batch, sols):
                    mats.append(sol)
        out = [[Cochain(bundle, n, i, j, mats) for mats in group]
               for (j, n, _), group in zip(groups, lifts)]
        if not all(is_cocycle(phi) for phis in out for phi in phis):
            raise SolverBoundError("lifted cochain failed the cocycle check")
        return out

    def _solve_unknown_times_known(self, nrows, ncols, known, rhss):
        """Solve U * known == rhs for an nrows x ncols U of bounded degree, per rhs."""
        pres = self.bundle.pres
        if ncols != known.nrows:
            raise ShapeMismatch("inner dimensions differ")

        # variable u[r,t] carrying word w adds w * known[t,c] to entry (r, c)
        blocks = [(("u", r, t), (r, c), a, True)
                  for (t, c), a in known.entries.items() for r in range(nrows)]
        operator = partial(_reached_system, pres, blocks, ())

        def accept(k, sol):
            out = Mat(nrows, ncols, decode_entries(sol, "u", pres).get((), {}))
            return out if out.mul(known) == rhss[k] else None

        out = _solve_on_ladder(self.ladder, [list(rhs.entries.items()) for rhs in rhss],
                               operator, accept)
        if None in out:
            raise SolverBoundError("no bounded-degree solution for the lift")
        return out

    def hom_classes(self, i):
        """Hom-complex cocycles of Ext^n(M_j, M_i), n = 1, 2, for every j.

        Returns {(n, j): (cocycles, dim, boundaries)}, the cocycles picked by
        ``_hom_representatives`` against the boundary echelon, which checks
        each dimension against the kernel.  Nothing is lifted.
        """
        out = {}
        for j in range(1, self.bundle.p + 1):
            for n, dim, boundaries, images in self._hom_groups(i, j):
                out[(n, j)] = (self._hom_representatives(images, dim, boundaries),
                               dim, boundaries)
        return out

    def ext_basis(self, i):
        """Deterministic Yoneda representatives of Ext^n(M_j, M_i), n = 1, 2.

        Returns {(n, j): representatives} for every j: the ``hom_classes``
        of the source module M_i, all lifted through ``_lift_to_yoneda``
        together.  Each group is certified as ``ExtBasis.certify`` would,
        against the same boundary echelon its cocycles were picked with.
        """
        classes = self.hom_classes(i)
        groups = [(j, n, vecs) for (n, j), (vecs, _, _) in classes.items()]
        out = {}
        for ((n, j), (_, dim, boundaries)), reps in zip(
                classes.items(), self._lift_to_yoneda(i, groups)):
            _certify_independent(self, n, i, j, reps, dim, boundaries)
            out[(n, j)] = reps
        return out

    def hom_vector(self, phi):
        """Image of a Yoneda cochain in the Hom complex (compose with rho)."""
        module = self.bundle.res(phi.i).module
        # L_0 = A has rank 1, so each row of the degree-0 component is one entry
        return {(r, w): cw for (r, _), a in phi.mats[0].entries.items()
                for w, cw in module.reduce(a).terms.items()}


# ---------------------------------------------------------------------------
# cochain equation solving
#
# Each rung multiplies only the normal words of the variable classes that
# its pending right-hand sides reach (``_reached_system``); one without a
# solution that passes the exact check moves on to the next rung
# (``_solve_on_ladder``).  Variables are keyed (kind, *component, row, col,
# word).  solve_sparse pivots on the least variable, so the key order
# decides which particular solution is returned (and so the report bytes);
# the order of the equations and the unreached components do not.

def _solve_on_ladder(ladder, rhss, operator, accept):
    """Solve several right-hand sides of one operator, rung by rung.

    ``operator(bound, pending_rhss)`` builds the coefficient part of a rung
    as a ``SparseSystem``; ``rhss[k]`` lists the (equation, element) terms of
    right-hand side k.  Each rung solves every right-hand side still pending
    in one elimination, and ``accept(k, solution)`` returns the exactly
    verified result for k or None, which leaves k pending for the next rung.
    Returns the results, None for a right-hand side no rung solved.
    """
    out = [None] * len(rhss)
    pending = list(range(len(rhss)))
    for bound in ladder:
        if not pending:
            break
        system = operator(bound, [rhss[k] for k in pending])
        for target, k in enumerate(pending):
            for eq, elem in rhss[k]:
                system.add(eq, elem, target=target)
        for k, sol in zip(pending, solve_sparse(system.equations(), len(pending))):
            if sol is not None:
                out[k] = accept(k, sol)
        pending = [k for k in pending if out[k] is None]
    return out


def _reached_system(pres, blocks, fixed, bound, rhs_terms):
    """The components of a bounded solve's system that ``rhs_terms`` reach.

    Block (var, eq, a, word_first): variable var + (w,), w a normal word of
    degree <= bound, adds w * a (a * w if not word_first) to equations
    eq + (word,); fixed column (var, eq, elem) adds elem.  A term of w * a
    has class(w) + class(u) for a term u of a, so the (eq, class) nodes of
    the right-hand sides (lists of (eq, elem)) and of the fixed columns are
    closed, eq -> var by class - alpha and var -> eq by class + alpha, and
    only the words of the reached var classes are multiplied, in normal-word
    order.  The rows kept are whole components of the full system, row for
    row, and only they can hold a nonzero solution entry or an inconsistency.
    """
    words = pres.normal_words(bound)
    by_class = pres.class_groups(bound)
    feeds, fed_by = {}, {}  # var -> [(eq, alphas)], eq -> [(var, alphas)]
    for var, eq, a, _ in blocks:
        alphas = {pres.word_class(u) for u in a.terms}
        feeds.setdefault(var, []).append((eq, alphas))
        fed_by.setdefault(eq, []).append((var, alphas))
    seeds = [(eq, elem) for terms in rhs_terms for eq, elem in terms]
    seeds += [(eq, elem) for _, eq, elem in fixed]
    todo = [(eq, pres.word_class(w)) for eq, elem in seeds for w in elem.terms]
    done, reached = set(), {}  # reached: var -> its reached classes
    while todo:
        eq, cls = node = todo.pop()
        if node in done:
            continue
        done.add(node)
        for var, alphas in fed_by.get(eq, ()):
            classes = reached.setdefault(var, set())
            for alpha in alphas:
                vc = tuple(x - y for x, y in zip(cls, alpha))
                if vc in by_class and vc not in classes:
                    classes.add(vc)
                    todo.extend((eq2, tuple(x + y for x, y in zip(vc, beta)))
                                for eq2, betas in feeds[var] for beta in betas)
    system = SparseSystem()
    for var, eq, a, word_first in blocks:
        for n in sorted(n for cls in reached.get(var, ()) for n in by_class[cls]):
            one = pres.element({words[n]: 1})
            system.add(eq, multiply(one, a) if word_first else multiply(a, one),
                       var + (words[n],))
    for var, eq, elem in fixed:
        system.add(eq, elem, var)
    return system


class SparseSystem:
    """Linear equations over the rationals, accumulated term by term.

    One coefficient part serves several right-hand sides, the targets,
    numbered from 0.
    """

    def __init__(self):
        self.rows = {}  # equation key -> [coefficient vector, {target: rhs}]

    def add(self, eq, elem, var=None, scale=1, target=0):
        """Add scale * elem to the equations eq + (word,), one per term of elem.

        The term goes to the coefficient of ``var``, or to the right-hand side
        of ``target`` when ``var`` is None; entries that cancel are dropped.
        """
        for w, c in elem.terms.items():
            row = self.rows.setdefault(eq + (w,), [{}, {}])
            part, key = (row[1], target) if var is None else (row[0], var)
            value = part.get(key, 0) + scale * c
            if value:
                part[key] = value
            else:
                part.pop(key, None)

    def equations(self):
        """The nonzero (coefficients, rhs) rows in sorted equation order."""
        rows = (self.rows[eq] for eq in sorted(self.rows))
        return [(coeffs, rhs) for coeffs, rhs in rows if coeffs or rhs]


def decode_entries(sol, kind, pres):
    """Matrix entries of the solution variables (kind, *component, row, col, word).

    Returns {component: {(row, col): AlgebraElement}}; variables absent from
    ``sol`` (free or zero) contribute nothing.
    """
    out = {}
    for var, c in sol.items():
        if var[0] != kind:
            continue
        entries = out.setdefault(var[1:-3], {})
        rc = var[-3:-1]
        term = pres.element({var[-1]: c})
        entries[rc] = entries[rc] + term if rc in entries else term
    return out


def _solve_cochain_equation(targets, basis, ladder):
    """Solve  sum_l c_l basis_l + d(alpha) = target  exactly, for each target.

    ``targets`` are degree-2 cochains of one type and ``basis`` a list of
    degree-2 cochains; equation (m, r, c, w) is the coefficient of word w in
    entry (r, c) of component m.  The coefficient part depends only on the
    type and the rung, so all targets share it.  Returns one (coeffs, alpha)
    per target, or None for a target infeasible at every bound of ``ladder``.
    """
    if not targets:
        return []
    bundle, i, j = targets[0].bundle, targets[0].i, targets[0].j
    if any(y.type != (i, j) for y in targets):
        raise ShapeMismatch("cochain equations solved together need one type")
    pres = bundle.pres
    res_i, res_j = bundle.res(i), bundle.res(j)

    blocks = []
    for m in range(bundle.mmax - 1):
        # D_{m+1,j} * alpha_m : entry (r2, c2) sums D[r2,t] * alpha_m[t,c2]
        blocks.extend((("a", m, t, c2), (m, r2, c2), a, False)
                      for (r2, t), a in res_j.diff(m + 1).entries.items()
                      for c2 in range(res_i.rank(m)))
        # alpha_{m+1} * D_{m,i} : entry (r2, c2) sums alpha[r2,t] * D[t,c2]
        blocks.extend((("a", m + 1, r2, t), (m, r2, c2), a, True)
                      for (t, c2), a in res_i.diff(m).entries.items()
                      for r2 in range(res_j.rank(m + 2)))
    fixed = [(("c", l), eq, v) for l, b in enumerate(basis) for eq, v in _terms(b)]
    operator = partial(_reached_system, pres, blocks, fixed)

    def accept(k, sol):
        coeffs = [sol.get(("c", l), 0) for l in range(len(basis))]
        entries = decode_entries(sol, "a", pres)
        alpha = Cochain(bundle, 1, i, j,
                        [Mat(res_j.rank(m + 1), res_i.rank(m), entries.get((m,), {}))
                         for m in range(bundle.mmax)])
        combo = yoneda_differential(alpha)
        for l, b in enumerate(basis):
            combo = combo.add(b.scale(coeffs[l]))
        return (coeffs, alpha) if combo == targets[k] else None

    return _solve_on_ladder(ladder, [_terms(y) for y in targets], operator, accept)


def _terms(phi):
    """The entries of a cochain as ((m, r, c), element) pairs."""
    return [((m, r, c), v) for m, mat in enumerate(phi.mats)
            for (r, c), v in mat.entries.items()]


def solve_coboundary(ys, ladder):
    """One 1-cochain alpha with d(alpha) = -y per 2-cochain y, verified exactly.

    The ``ys`` share one type and are solved together.
    """
    results = _solve_cochain_equation([y.scale(-1) for y in ys], [], ladder)
    if None in results:
        raise NotACoboundary("no bounded-degree primitive up to bound %d"
                             % ladder[-1])
    return [alpha for _, alpha in results]


def project_ext2(ys, basis_cochains, ladder):
    """Expand 2-cocycles over basis cocycles: y = sum c_l b_l + d(alpha).

    The ``ys`` share one type and are solved together.  Returns one
    (coefficient list, witness alpha) per cocycle, both verified
    symbolically.
    """
    results = _solve_cochain_equation(list(ys), list(basis_cochains), ladder)
    if None in results:
        raise ProjectionFailed(
            "2-cocycle of type (%d,%d) not in span + coboundaries up to bound %d"
            % (ys[0].i, ys[0].j, ladder[-1]))
    return results


class ExtBasis:
    """Certified cocycle representatives dual to the hull generators."""

    def __init__(self, bundle, ext1, ext2, source):
        self.bundle = bundle
        self.ext1 = ext1  # (i, j) -> list[Cochain]
        self.ext2 = ext2
        self.source = source  # "computed" or "preset"

    def table(self):
        from .matrix_ring import GeneratorTable
        d = {(i, j): len(v) for (i, j), v in self.ext1.items() if v}
        r = {(i, j): len(v) for (i, j), v in self.ext2.items() if v}
        return GeneratorTable(self.bundle.p, d, r)

    def ext1_rep(self, i, j, l):
        return self.ext1[(i, j)][l - 1]

    @staticmethod
    def computed(computer):
        bundle = computer.bundle
        ext1, ext2 = {}, {}
        for i in range(1, bundle.p + 1):
            reps = computer.ext_basis(i)
            for j in range(1, bundle.p + 1):
                ext1[(i, j)] = reps[(1, j)]
                ext2[(i, j)] = reps[(2, j)]
        return ExtBasis(bundle, ext1, ext2, "computed")

    def certify(self, computer):
        """Check cocycle conditions, dimensions, and independence."""
        for i, j in dict.fromkeys([*self.ext1, *self.ext2]):
            tables = [(n, table[(i, j)]) for n, table in ((1, self.ext1), (2, self.ext2))
                      if (i, j) in table]
            for n, reps in tables:
                for phi in reps:
                    if phi.degree != n or phi.type != (i, j):
                        raise ShapeMismatch("misfiled representative")
                    if not is_cocycle(phi):
                        raise ValidationError(
                            "representative for Ext^%d(%d,%d) is not a cocycle"
                            % (n, i, j))
            groups = {n: (dim, boundaries)
                      for n, dim, boundaries, _ in computer._hom_groups(i, j)}
            for n, reps in tables:
                _certify_independent(computer, n, i, j, reps, *groups[n],
                                     outside=ValidationError)
        return True


def _certify_independent(computer, n, i, j, reps, dim, boundaries,
                         outside=ShapeMismatch):
    """Check that ``reps`` are ``dim`` classes independent modulo ``boundaries``.

    A representative with a Hom-complex term above the degree bound raises
    ``outside``: bad input for a given basis, a broken invariant for a
    computed one.
    """
    if dim != len(reps):
        raise ValidationError(
            "Ext^%d(M%d, M%d) has dim %d but %d representatives"
            % (n, j, i, dim, len(reps)))
    bound = computer.degree_bound
    degree = computer.bundle.pres.word_degree
    seen = Echelon()
    for phi in reps:
        vec = computer.hom_vector(phi)
        if any(degree(w) > bound for _, w in vec):
            raise outside("a representative of Ext^%d(M%d, M%d) exceeds degree bound %d"
                          % (n, j, i, bound))
        resid = seen.reduce(boundaries.reduce(vec))
        if not resid:
            raise ValidationError(
                "representatives of Ext^%d(M%d, M%d) are dependent"
                % (n, j, i))
        seen.add(resid)
