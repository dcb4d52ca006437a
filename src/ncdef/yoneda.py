"""Free resolutions, the Yoneda complex, and truncated Ext computation.

Free modules are row-vector modules: a map L -> L' of ranks (r, r') is right
multiplication by an r x r' matrix over the algebra.  A degree-n cochain
from the resolution of M_j to that of M_i has components
phi_m : L_{m+n, j} -> L_{m, i}, and the differential is

    d(phi)_m = phi_m . d_{n+m, j} + (-1)^(n+1) d_{m, i} . phi_{m+1}

which in right-multiplication matrices reads
D_{n+m,j} * phi_m + (-1)^(n+1) phi_{m+1} * D_{m,i}.

Ext^n(M_j, M_i) is computed from the complex Hom(L_{*,j}, M_i) with all
module coefficients truncated at a filtration degree B: cocycles are taken
with entries of degree <= B while coboundaries come from potentials of
degree <= B + BOUNDARY_SLACK, and the resulting dimension must agree at B
and B+1 to be certified.  Classes are then lifted through the projectives to
Yoneda cochains by bounded-degree solves.

Every bounded-degree solve -- the lifts here, coboundary primitives and
Ext^2 projections below, and the equivalence intertwiners of the checker --
follows one path: for each rung of ``bound_ladder`` it builds a
``SparseSystem``, solves it with ``solve_sparse``, turns the solution into
matrix entries with ``decode_entries`` and verifies the result exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import QuotientModule, multiply
from .errors import (NotACoboundary, NotStabilized, ProjectionFailed, ShapeMismatch,
                     SolverBoundError, ValidationError)
from .linalg import Echelon, kernel_basis, solve_sparse, vec_add, vec_scale

DEFAULT_BOUND = 4
RETRY_STEP = 2
MAX_BOUND = 12
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
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ShapeMismatch("ragged matrix rows")
            for c, v in enumerate(row):
                if isinstance(v, str):
                    v = pres.parse(v)
                elif isinstance(v, (int, Fraction)):
                    v = pres.one().scale(v)
                if not v.is_zero():
                    entries[(r, c)] = v
        return Mat(nrows, ncols, entries)

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

    def max_degree(self):
        return max((v.degree() for v in self.entries.values()), default=-1)

    def __repr__(self):
        return "Mat(%dx%d, %r)" % (self.nrows, self.ncols, self.entries)


class FreeResolution:
    """Free resolution of a cyclic module A / (left ideal of generators).

    ranks[m] is the rank of L_m; diffs[m] is the right-multiplication matrix
    of d_m : L_{m+1} -> L_m.  Consecutive differentials must compose to
    zero, checked symbolically on construction.
    """

    def __init__(self, pres, ideal_gens, ranks, diffs, name=None):
        if not ranks or ranks[0] != 1:
            raise ValidationError("cyclic module resolutions start with L_0 = A")
        if len(ranks) < 2 or len(diffs) != len(ranks) - 1:
            raise ValidationError("need d_0 : L_1 -> L_0 and exactly one "
                                  "differential per adjacent pair")
        self.pres = pres
        self.module = QuotientModule(pres, ideal_gens, name=name)
        self.ranks = list(ranks)
        self.name = name
        self.diffs = []
        for m, d in enumerate(diffs):
            if not isinstance(d, Mat):
                d = Mat.from_rows(d, pres)
            if (d.nrows, d.ncols) != (self.ranks[m + 1], self.ranks[m]):
                raise ShapeMismatch("differential %d has shape %dx%d, expected %dx%d"
                                    % (m, d.nrows, d.ncols,
                                       self.ranks[m + 1], self.ranks[m]))
            self.diffs.append(d)
        for m in range(len(self.diffs) - 1):
            if not self.diffs[m + 1].mul(self.diffs[m]).is_zero():
                raise ValidationError(
                    "differentials %d and %d do not compose to zero" % (m, m + 1))
        # augmentation sanity: rows of d_0 must die in the module
        for (r, c), v in self.diffs[0].entries.items():
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

    def res(self, i):
        return self.resolutions[i]

    def zero_cochain(self, n, i, j):
        mats = tuple(Mat(self.res(j).rank(m + n), self.res(i).rank(m))
                     for m in range(self.mmax - n + 1))
        return Cochain(self, n, i, j, mats)

    def differential_cochain(self, i):
        """The resolution differentials of M_i packaged as a 1-cochain."""
        mats = tuple(self.res(i).diff(m) for m in range(self.mmax))
        return Cochain(self, 1, i, i, mats)


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

    def sub(self, other):
        return self.add(other.scale(-1))

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
    """The Yoneda complex differential of a cochain."""
    bundle = phi.bundle
    n = phi.degree
    sign = Fraction(-1) if (n + 1) % 2 else Fraction(1)
    res_i = bundle.res(phi.i)
    res_j = bundle.res(phi.j)
    mats = []
    for m in range(bundle.mmax - n):
        term = res_j.diff(n + m).mul(phi.mats[m])
        term = term.add(phi.mats[m + 1].mul(res_i.diff(m)).scale(sign))
        mats.append(term)
    return Cochain(bundle, n + 1, phi.i, phi.j, mats)


def is_cocycle(phi):
    return yoneda_differential(phi).is_zero()


def compose_cochains(outer, inner):
    """Yoneda product of 1-cochains: outer of type (i,t) after inner of (t,j).

    The result represents the monomial (outer arrow)(inner arrow) of type
    (i,j); component m is the matrix product inner_{m+1} * outer_m.
    """
    if outer.degree != 1 or inner.degree != 1:
        raise ShapeMismatch("cup products take two 1-cochains")
    if outer.j != inner.i:
        raise ShapeMismatch("types (%d,%d) and (%d,%d) do not compose"
                            % (outer.i, outer.j, inner.i, inner.j))
    bundle = outer.bundle
    mats = [inner.mats[m + 1].mul(outer.mats[m]) for m in range(bundle.mmax - 1)]
    return Cochain(bundle, 2, outer.i, inner.j, mats)


# ---------------------------------------------------------------------------
# Ext via the truncated Hom complex

class ExtComputer:
    """Dimensions and Yoneda representatives of Ext^1 and Ext^2."""

    def __init__(self, bundle, degree_bound=DEFAULT_BOUND, retry_step=RETRY_STEP,
                 max_bound=MAX_BOUND):
        self.bundle = bundle
        self.degree_bound = degree_bound
        self.retry_step = retry_step
        self.max_bound = max_bound
        self._dim_cache = {}

    # -- Hom complex plumbing -------------------------------------------

    def _coords(self, i, j, m, bound):
        """Coordinate labels of Hom(L_{m,j}, M_i) truncated at degree bound."""
        res_j = self.bundle.res(j)
        module = self.bundle.res(i).module
        words = [w for w in module.basis_words(bound)]
        return [(r, w) for r in range(res_j.rank(m)) for w in words]

    def _apply_d(self, i, j, m, vec):
        """Image of a Hom(L_m, M_i) vector under composition with d_m."""
        module = self.bundle.res(i).module
        pres = self.bundle.pres
        D = self.bundle.res(j).diff(m)
        out = {}
        for (t, w), c in vec.items():
            rep = pres.element({w: 1})
            for (s, t2), a in D.entries.items():
                if t2 != t:
                    continue
                acted = module.act(a, rep)
                for w2, c2 in acted.terms.items():
                    key = (s, w2)
                    val = out.get(key, Fraction(0)) + c * c2
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        return out

    def _hom_dims(self, i, j, n, bound):
        """(kernel dim, boundary dim) at the given truncation bound."""
        cocycle_coords = self._coords(i, j, n, bound)
        images = [self._apply_d(i, j, n, {lab: Fraction(1)}) for lab in cocycle_coords]
        ech = Echelon(priority=lambda c: (c[0], c[1]))
        rank = sum(1 for v in images if v and ech.add(v) is not None)
        kernel_dim = len(cocycle_coords) - rank
        boundary_dim = 0
        if n >= 1:
            pres = self.bundle.pres
            bd_sources = self._coords(i, j, n - 1, bound + BOUNDARY_SLACK)
            in_b = Echelon(priority=lambda c: (c[0], c[1]))
            out_b = Echelon(priority=lambda c: (c[0], c[1]))
            total = 0
            outside = 0
            for lab in bd_sources:
                v = self._apply_d(i, j, n - 1, {lab: Fraction(1)})
                if not v:
                    continue
                if in_b.add(dict(v)) is not None:
                    total += 1
                proj = {k: c for k, c in v.items()
                        if pres.word_degree(k[1]) > bound}
                if proj and out_b.add(proj) is not None:
                    outside += 1
            boundary_dim = total - outside
        return kernel_dim, boundary_dim

    def ext_dimension(self, i, j, n, degree_bound=None):
        """Certified dim Ext^n(M_j, M_i); stable at two consecutive bounds."""
        bound = degree_bound if degree_bound is not None else self.degree_bound
        key = (i, j, n, bound)
        if key in self._dim_cache:
            return self._dim_cache[key]
        if n == 0:
            raise ValidationError("ext_dimension computes n = 1 or 2")
        kz, kb = self._hom_dims(i, j, n, bound)
        dim_here = kz - kb
        kz2, kb2 = self._hom_dims(i, j, n, bound + 1)
        dim_next = kz2 - kb2
        if dim_here != dim_next:
            raise NotStabilized(
                "Ext^%d(M%d, M%d) is %d at bound %d but %d at bound %d"
                % (n, j, i, dim_here, bound, dim_next, bound + 1))
        self._dim_cache[key] = dim_here
        return dim_here

    # -- representatives --------------------------------------------------

    def _boundary_echelon(self, i, j, n, bound):
        """Echelon of the boundaries supported inside the bound-B window.

        Boundary generators come from potentials at bound + BOUNDARY_SLACK; a
        column sweep removes every outside-window coordinate first, leaving a
        spanning set of (image intersect window), which is then echelonized.
        """
        pres = self.bundle.pres
        rows = []
        if n >= 1:
            for lab in self._coords(i, j, n - 1, bound + BOUNDARY_SLACK):
                v = self._apply_d(i, j, n - 1, {lab: Fraction(1)})
                if v:
                    rows.append(dict(v))
        out_cols = sorted({k for v in rows for k in v
                           if pres.word_degree(k[1]) > bound})
        for col in out_cols:
            pivot_row = None
            for r in rows:
                if col in r:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows.remove(pivot_row)
            pivot_row = vec_scale(pivot_row, Fraction(1) / pivot_row[col])
            rows = [vec_add(r, pivot_row, -r[col]) if col in r else r for r in rows]
            rows = [r for r in rows if r]
        inside = Echelon(priority=lambda c: (c[0], c[1]))
        for r in rows:
            inside.add(r)
        return inside

    def _hom_representatives(self, i, j, n, bound):
        dim = self.ext_dimension(i, j, n, bound)
        if dim == 0:
            return []
        coords = self._coords(i, j, n, bound)
        images = [self._apply_d(i, j, n, {lab: Fraction(1)}) for lab in coords]
        kernel = kernel_basis(images, tags=coords)
        boundaries = self._boundary_echelon(i, j, n, bound)
        chosen = []
        chosen_ech = Echelon(priority=lambda c: (c[0], c[1]))
        for vec in kernel:
            resid = boundaries.reduce(vec)
            resid = chosen_ech.reduce(resid)
            if resid:
                lead = min(resid, key=lambda lab: (
                    self.bundle.pres.word_degree(lab[1]), lab[1], lab[0]))
                resid = {k: c / resid[lead] for k, c in resid.items()}
                chosen.append(resid)
                chosen_ech.add(dict(resid))
            if len(chosen) == dim:
                break
        if len(chosen) != dim:
            raise NotStabilized("representative count %d below certified dim %d"
                                % (len(chosen), dim))
        return chosen

    def _lift_to_yoneda(self, i, j, n, hom_vec):
        """Lift a Hom-complex cocycle to a Yoneda cochain through L_{*,i}."""
        bundle = self.bundle
        res_i, res_j = bundle.res(i), bundle.res(j)
        pres = bundle.pres
        phi0 = {}
        for (r, w), c in hom_vec.items():
            key = (r, 0)
            cur = phi0.get(key, pres.zero())
            phi0[key] = cur + pres.element({w: c})
        mats = [Mat(res_j.rank(n), res_i.rank(0), phi0)]
        sign = Fraction(-1) if (n + 1) % 2 else Fraction(1)
        for m in range(bundle.mmax - n):
            # solve phi_{m+1} * D_{m,i} = -D_{n+m,j} * phi_m  (up to sign)
            rhs = res_j.diff(n + m).mul(mats[m]).scale(-1)
            target_rows = res_j.rank(n + m + 1)
            target_cols = res_i.rank(m + 1)
            if target_rows == 0 or target_cols == 0 or res_i.rank(m) == 0:
                mats.append(Mat(target_rows, target_cols))
                continue
            sol = self._solve_unknown_times_known(
                target_rows, target_cols, res_i.diff(m), rhs.scale(sign))
            mats.append(sol)
        phi = Cochain(bundle, n, i, j, mats)
        if not is_cocycle(phi):
            raise SolverBoundError("lifted cochain failed the cocycle check")
        return phi

    def _solve_unknown_times_known(self, nrows, ncols, known, rhs):
        """Solve U * known == rhs for an nrows x ncols U of bounded degree."""
        pres = self.bundle.pres
        if ncols != known.nrows:
            raise ShapeMismatch("inner dimensions differ")
        for bound in bound_ladder(self.degree_bound, self.retry_step, self.max_bound):
            words = pres.normal_words(bound)
            system = SparseSystem()
            # variable u[r,t] carrying word w feeds output entry (r, c)
            for (t, c), a in known.entries.items():
                for w in words:
                    prod = multiply(pres.element({w: 1}), a)
                    for r in range(nrows):
                        system.add((r, c), prod, ("u", r, t, w))
            for (r, c), v in rhs.entries.items():
                system.add((r, c), v)
            sol = solve_sparse(system.equations())
            if sol is None:
                continue
            out = Mat(nrows, ncols, decode_entries(sol, "u", pres).get((), {}))
            if out.mul(known) == rhs:
                return out
        raise SolverBoundError("no bounded-degree solution for the lift")

    def ext_basis(self, i, j, n, degree_bound=None):
        """Deterministic Yoneda representatives spanning Ext^n(M_j, M_i)."""
        bound = degree_bound if degree_bound is not None else self.degree_bound
        reps = self._hom_representatives(i, j, n, bound)
        return [self._lift_to_yoneda(i, j, n, v) for v in reps]

    def hom_vector(self, phi, bound):
        """Image of a Yoneda cochain in the Hom complex (compose with rho)."""
        module = self.bundle.res(phi.i).module
        vec = {}
        mat = phi.mats[0]
        for (r, c), a in mat.entries.items():
            red = module.reduce(a)
            for w, cw in red.terms.items():
                if self.bundle.pres.word_degree(w) > bound:
                    raise ShapeMismatch("representative exceeds bound %d" % bound)
                key = (r, w)
                val = vec.get(key, Fraction(0)) + cw
                if val:
                    vec[key] = val
                else:
                    vec.pop(key, None)
        return vec


# ---------------------------------------------------------------------------
# cochain equation solving
#
# Each solve enumerates the normal words once per rung; a rung without a
# solution that passes the exact check moves on to the next.  Variables are
# keyed (kind, *component, row, col, word).  solve_sparse pivots on the
# least variable, so the key order decides which particular solution is
# returned (and so the report bytes); the order of the equations does not.

def bound_ladder(degree_bound, retry_step, max_bound):
    """The degree bounds of one bounded solve, each tried once.

    degree_bound, degree_bound + retry_step, ..., capped at
    max(degree_bound, max_bound): a degree_bound above max_bound is tried
    alone.
    """
    cap = max(degree_bound, max_bound)
    bound = degree_bound
    while bound < cap:
        yield bound
        bound += retry_step
    yield cap


class SparseSystem:
    """Linear equations over the rationals, accumulated term by term."""

    def __init__(self):
        self.rows = {}  # equation key -> [coefficient vector, rhs]

    def add(self, eq, elem, var=None, scale=1):
        """Add scale * elem to the equations eq + (word,), one per term of elem.

        The term goes to the coefficient of ``var``, or to the right-hand side
        when ``var`` is None; coefficients that cancel are dropped.
        """
        for w, c in elem.terms.items():
            row = self.rows.setdefault(eq + (w,), [{}, Fraction(0)])
            if var is None:
                row[1] += scale * c
                continue
            coeff = row[0].get(var, 0) + scale * c
            if coeff:
                row[0][var] = coeff
            else:
                row[0].pop(var, None)

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


def _solve_cochain_equation(target, basis, degree_bound, retry_step, max_bound):
    """Solve  sum_l c_l basis_l + d(alpha) = target  exactly.

    Returns (coeffs, alpha) or None if infeasible at every allowed bound.
    ``target`` is a degree-2 cochain; ``basis`` a list of degree-2 cochains.
    Equation (m, r, c, w) is the coefficient of word w in entry (r, c) of
    component m.
    """
    bundle, i, j = target.bundle, target.i, target.j
    pres = bundle.pres
    res_i, res_j = bundle.res(i), bundle.res(j)
    given = [(None, target)] + [(("c", l), b) for l, b in enumerate(basis)]
    for bound in bound_ladder(degree_bound, retry_step, max_bound):
        words = pres.normal_words(bound)
        system = SparseSystem()
        for m in range(bundle.mmax - 1):
            # D_{m+1,j} * alpha_m : entry (r2, c2) sums D[r2,t] * alpha_m[t,c2]
            for (r2, t), a in res_j.diff(m + 1).entries.items():
                for w in words:
                    prod = multiply(a, pres.element({w: 1}))
                    for c2 in range(res_i.rank(m)):
                        system.add((m, r2, c2), prod, ("a", m, t, c2, w))
            # alpha_{m+1} * D_{m,i} : entry (r2, c2) sums alpha[r2,t] * D[t,c2]
            for (t, c2), a in res_i.diff(m).entries.items():
                for w in words:
                    prod = multiply(pres.element({w: 1}), a)
                    for r2 in range(res_j.rank(m + 2)):
                        system.add((m, r2, c2), prod, ("a", m + 1, r2, t, w))
        for var, phi in given:
            for m, mat in enumerate(phi.mats):
                for (r, c), v in mat.entries.items():
                    system.add((m, r, c), v, var)
        sol = solve_sparse(system.equations())
        if sol is None:
            continue
        coeffs = [sol.get(("c", l), Fraction(0)) for l in range(len(basis))]
        entries = decode_entries(sol, "a", pres)
        alpha = Cochain(bundle, 1, i, j,
                        [Mat(res_j.rank(m + 1), res_i.rank(m), entries.get((m,), {}))
                         for m in range(bundle.mmax)])
        combo = yoneda_differential(alpha)
        for l, b in enumerate(basis):
            combo = combo.add(b.scale(coeffs[l]))
        if combo == target:
            return coeffs, alpha
    return None


def solve_coboundary(y, degree_bound=DEFAULT_BOUND, retry_step=RETRY_STEP,
                     max_bound=MAX_BOUND):
    """Find a 1-cochain alpha with d(alpha) = -y, verified exactly."""
    result = _solve_cochain_equation(y.scale(-1), [], degree_bound, retry_step,
                                     max_bound)
    if result is None:
        raise NotACoboundary("no bounded-degree primitive up to bound %d"
                             % max(degree_bound, max_bound))
    _, alpha = result
    return alpha


def project_ext2(y, basis_cochains, degree_bound=DEFAULT_BOUND,
                 retry_step=RETRY_STEP, max_bound=MAX_BOUND):
    """Expand a 2-cocycle over basis cocycles: y = sum c_l b_l + d(alpha).

    Returns (coefficient list, witness alpha), both verified symbolically.
    """
    result = _solve_cochain_equation(y, list(basis_cochains), degree_bound,
                                     retry_step, max_bound)
    if result is None:
        raise ProjectionFailed(
            "2-cocycle of type (%d,%d) not in span + coboundaries up to bound %d"
            % (y.i, y.j, max(degree_bound, max_bound)))
    return result


class ExtBasis:
    """Certified cocycle representatives dual to the hull generators."""

    def __init__(self, bundle, ext1, ext2, bound, source):
        self.bundle = bundle
        self.ext1 = ext1  # (i, j) -> list[Cochain]
        self.ext2 = ext2
        self.bound = bound
        self.source = source  # "computed" or "preset"

    def table(self):
        from .matrix_ring import GeneratorTable
        d = {(i, j): len(v) for (i, j), v in self.ext1.items() if v}
        r = {(i, j): len(v) for (i, j), v in self.ext2.items() if v}
        return GeneratorTable(self.bundle.p, d, r)

    def ext1_rep(self, i, j, l):
        return self.ext1[(i, j)][l - 1]

    def ext2_rep(self, i, j, l):
        return self.ext2[(i, j)][l - 1]

    @staticmethod
    def computed(computer, degree_bound=None):
        bundle = computer.bundle
        bound = degree_bound if degree_bound is not None else computer.degree_bound
        ext1, ext2 = {}, {}
        for i in range(1, bundle.p + 1):
            for j in range(1, bundle.p + 1):
                ext1[(i, j)] = computer.ext_basis(i, j, 1, bound)
                ext2[(i, j)] = computer.ext_basis(i, j, 2, bound)
        return ExtBasis(bundle, ext1, ext2, bound, "computed")

    def certify(self, computer):
        """Check cocycle conditions, dimensions, and independence."""
        bundle = self.bundle
        for n, table in ((1, self.ext1), (2, self.ext2)):
            for (i, j), reps in table.items():
                for phi in reps:
                    if phi.degree != n or phi.type != (i, j):
                        raise ShapeMismatch("misfiled representative")
                    if not is_cocycle(phi):
                        from .errors import NotACocycle
                        raise NotACocycle("representative for Ext^%d(%d,%d)" % (n, i, j))
                dim = computer.ext_dimension(i, j, n, self.bound)
                if dim != len(reps):
                    raise ValidationError(
                        "Ext^%d(M%d, M%d) has dim %d but %d representatives"
                        % (n, j, i, dim, len(reps)))
                if reps:
                    boundaries = computer._boundary_echelon(i, j, n, self.bound)
                    seen = Echelon(priority=lambda c: (c[0], c[1]))
                    for phi in reps:
                        vec = computer.hom_vector(phi, self.bound)
                        resid = seen.reduce(boundaries.reduce(vec))
                        if not resid:
                            raise ValidationError(
                                "representatives of Ext^%d(M%d, M%d) are dependent"
                                % (n, j, i))
                        seen.add(resid)
        return True
