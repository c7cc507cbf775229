"""Twisted principal bundles with connection, stored as local data over a
cover: transitions e_ij into E and the forms A_i, A_ij and F_i, plus
validation and gauge transformation.  The rest is derived, not stored:
the fiber 2-cocycle h_ijk = iota^-1(e_ij e_jk e_ki), and the G layer
g_ij = pi(e_ij) and D_i = pi_*(A_i).

Group-valued local maps are carried by GroupMap, whose jets are exact:
defining functions are evaluated on dual numbers over stacks of points,
products and inverses follow the product rule, and a map pushed through
a homomorphism of the extension is differentiated through that
homomorphism's differential.  Forms carry their exterior derivatives (see
formsexpr.forms), so no identity checked here involves a finite
difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .dual import value
from .errors import MissingField, RegionUndersampled, TagMismatch
from .formsexpr.forms import LocalForm, exterior_derivative, zero_form
from .liecore import (CentralExtension, GroupElement, _exp_stack, kernel_block,
                      log_principal)


def _stack_entries(rows, shape):
    """Nested matrix entries (node arrays of the given shape, Duals over
    them, or constants) -> (value stack, derivative stack), each of
    shape + (d, d)."""
    val = np.empty(shape + (len(rows), len(rows[0])), dtype=complex)
    dot = np.empty_like(val)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            val[..., r, c] = value(entry)
            dot[..., r, c] = dm.derivative(entry)
    return val, dot


class GroupMap:
    """A smooth group-valued map on (part of) the model, with exact jets.

    value(point) is g(p) and jet(point, direction) the pair (g(p),
    derivative of g at p along the ambient direction).  Both take one
    point of shape (n,) and give (d, d) matrices, or an (N, n) stack and
    give (N, d, d) stacks, through the same code: value_fn maps a
    (..., n) stack to its (..., d, d) values, jet_fn a point stack and a
    direction stack to the pair of stacks.
    """

    def __init__(self, jet_fn, tag, value_fn):
        self._jet = jet_fn
        self.tag = tag
        self._value = value_fn

    @classmethod
    def from_dual_fn(cls, fn, tag):
        """fn maps the list of coordinate node arrays of a stack (plain,
        or Duals over the nodes) to a nested-list square matrix whose
        entries are node arrays, Duals or constants."""

        def jet(p, d):
            return _stack_entries(fn(dm.seeded(p, d)), p.shape[:-1])

        def val(p):
            return _stack_entries(fn(dm.columns(p)), p.shape[:-1])[0]

        return cls(jet, tag, val)

    @classmethod
    def constant(cls, matrix, tag):
        m = np.array(matrix, dtype=complex)

        def val(p):
            return np.broadcast_to(m, p.shape[:-1] + m.shape)

        return cls(lambda p, d: (val(p), np.zeros_like(val(p))), tag, val)

    def value(self, point) -> GroupElement:
        return GroupElement(self._value(np.asarray(point, dtype=float)),
                            self.tag)

    def jet(self, point, direction):
        return self._jet(np.asarray(point, dtype=float),
                         np.asarray(direction, dtype=float))

    # --- combinators (all propagate exact derivatives) ------------------

    def mul(self, other: "GroupMap") -> "GroupMap":
        if other.tag != self.tag:
            raise TagMismatch(f"{self.tag} * {other.tag}")

        def jet(p, d):
            a, da = self._jet(p, d)
            b, db = other._jet(p, d)
            return a @ b, da @ b + a @ db

        return GroupMap(jet, self.tag,
                        lambda p: self._value(p) @ other._value(p))

    def inv(self) -> "GroupMap":
        def jet(p, d):
            a, da = self._jet(p, d)
            ai = np.linalg.inv(a)
            return ai, -ai @ da @ ai

        return GroupMap(jet, self.tag,
                        lambda p: np.linalg.inv(self._value(p)))

    def pushforward(self, hom, alg_hom, tag) -> "GroupMap":
        """Compose with a group homomorphism `hom` on matrices (include,
        project, or kernel_block on iota(H)) with differential `alg_hom`;
        the jet is exact: d hom(a) = hom(a) . alg_hom(a^-1 da)."""

        def jet(p, d):
            a, da = self._jet(p, d)
            v = hom(a)
            return v, v @ alg_hom(np.linalg.inv(a) @ da)

        return GroupMap(jet, tag, lambda p: hom(self._value(p)))

    # --- derived forms --------------------------------------------------

    def maurer_cartan(self, dim) -> LocalForm:
        """The 1-form g^-1 dg, valued in the algebra of the map's group."""
        def evalfn(p, v):
            a, da = self._jet(p, v)
            return np.linalg.inv(a) @ da

        return LocalForm(1, dim, evalfn, self.tag.lower())

    def conjugated_form(self, form: LocalForm) -> LocalForm:
        """(p, v) -> g(p)^-1 form(p, v) g(p)."""
        def evalfn(p, *t):
            a = self._value(p)
            return np.linalg.inv(a) @ form(p, *t) @ a

        return LocalForm(form.degree, form.dim, evalfn, form.value_tag)


# --------------------------------------------------------------------------
# Region sampling
# --------------------------------------------------------------------------

SAMPLE_BUDGET = 20000    # candidate draws before sample_region gives up


def sample_region(cover, indices, rng, count):
    """`count` random points lying in every margin-shrunk chart of
    `indices`, as a (count, n) stack: the first hits among at most
    SAMPLE_BUDGET candidates.

    Candidates are drawn and tested in growing blocks.  Once a block
    holds the count-th hit, the generator is reset and exactly the
    candidates up to that hit are drawn again, so the points and the
    generator's final state are those of drawing and testing one
    candidate at a time."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    model = cover.model
    charts = [cover.charts[i] for i in indices]

    def candidates(n):
        q = model.reduce(model.random_points(rng, n))
        return q, np.logical_and.reduce(
            [c.contains(q, with_margin=True) for c in charts])

    start = rng.bit_generator.state
    drawn, missing, block = 0, count, 4 * count
    while drawn < SAMPLE_BUDGET:
        block = min(block, SAMPLE_BUDGET - drawn)
        hits = np.flatnonzero(candidates(block)[1])
        if len(hits) >= missing:
            rng.bit_generator.state = start
            q, fit = candidates(drawn + hits[missing - 1] + 1)
            return q[fit]
        drawn += block
        missing -= len(hits)
        block *= 2
    raise RegionUndersampled(f"could not sample region {tuple(indices)}: "
                             f"{count - missing} of {count} points accepted "
                             f"in {drawn} draws")


def overlap_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


# --------------------------------------------------------------------------
# Bundle data
# --------------------------------------------------------------------------

@dataclass
class TwistedBundleData:
    """Local data of a twisted bundle with 0- and 1-connection.  h, g and
    D are rebuilt from e and A on every read (h_ijk = iota^-1(e_ij e_jk
    e_ki), g_ij = pi(e_ij), D_i = pi_*(A_i)), so they follow any later
    change to e or A."""

    name: str
    cover: object
    extension: CentralExtension
    e: dict          # (i,j) -> GroupMap into E
    A: dict          # i -> degree-1 LocalForm valued in L(E)
    Aij: dict        # (i,j) -> degree-1 LocalForm valued in L(H)
    F: dict          # i -> degree-2 LocalForm valued in L(H)

    @property
    def nc(self):
        return len(self.cover)

    @property
    def h(self):
        """(i,j,k) -> GroupMap into H: e_ij e_jk e_ki read back into H by
        kernel_block (validate checks that the product lies in iota(H))."""
        e = self.e
        return {(i, j, k): e[(i, j)].mul(e[(j, k)]).mul(e[(k, i)])
                .pushforward(kernel_block, kernel_block, "H")
                for (i, j, k) in itertools.permutations(range(self.nc), 3)}

    @property
    def g(self):
        """(i,j) -> GroupMap into G: the projection of e_ij."""
        ext = self.extension
        return {ij: m.pushforward(ext.project_mat, ext.alg_project_mat, "G")
                for ij, m in self.e.items()}

    @property
    def D(self):
        """i -> degree-1 LocalForm valued in L(G): pi_*(A_i)."""
        ext = self.extension
        return {i: _push_form(a, ext.alg_project_mat, ext.G.dim, "g")
                for i, a in self.A.items()}

    def check_structure(self):
        n = self.nc
        for i in range(n):
            for store, label in ((self.A, "A"), (self.F, "F")):
                if i not in store:
                    raise MissingField(f"{label}[{i}] missing")
        for ij in overlap_pairs(n):
            for store, label in ((self.e, "e"), (self.Aij, "A_ij")):
                if ij not in store:
                    raise MissingField(f"{label}[{ij}] missing")


def _push_form(form: LocalForm, alg_hom, dim, tag) -> LocalForm:
    """form followed by alg_hom, the differential of an extension's
    include or project map: a dim x dim form tagged `tag`."""
    def evalfn(p, *t):
        return alg_hom(form(p, *t))

    return LocalForm(form.degree, dim, evalfn, tag)


@dataclass
class GaugeData:
    """A Čech gauge: e_i per chart, h_ij per overlap, B_i 1-forms."""

    e_i: dict        # i -> GroupMap into E
    h_ij: dict       # (i,j) -> GroupMap into H, with h_ji = h_ij^-1
    B_i: dict        # i -> degree-1 LocalForm valued in L(H)


@dataclass
class ValidationReport:
    residuals: dict
    tol: float

    @property
    def max_residual(self):
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self):
        return self.max_residual <= self.tol


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def _tangents(cover, rng, pts, count):
    """`count` random tangents at each of the (N, n) points, as `count`
    (N, n) stacks, drawn in one block in the order of drawing them point
    by point."""
    model = cover.model
    v = rng.normal(size=(len(pts), count, model.ambient_dim))
    return model.tangent(pts[:, None], v).swapaxes(0, 1)


def _worst(stack):
    """The largest Frobenius norm in an (N, d, d) stack; inf when any
    entry is NaN, so that the residual fails (max(0.0, nan) is 0.0)."""
    worst = float(np.linalg.norm(stack, axis=(-2, -1)).max())
    return np.inf if np.isnan(worst) else worst


def validate(bundle: TwistedBundleData, sample_count=40, tol=1e-8,
             seed=0) -> ValidationReport:
    """Numerically check the local identities of the stored data at random
    region samples, each evaluated once per region on the stack of its
    samples: on pairs antisymmetry_e, antisymmetry_Aij, A_gluing and
    curving_gluing; on triples cocycle, that P = e_ij e_jk e_ki lies in
    iota(H) = ker pi, read as |pi(P) - 1_G| (P - iota(K(P)) reads 0 for
    every P on roots-of-unity-n, whose include_mat is the identity).

    h_ijk = K(P) needs no identity of its own.  Chaining A_gluing over
    (i,j), (j,k), (k,i) gives P^-1 dP = A_i - Ad(P^-1) A_i - iota(A_ij +
    A_jk + A_ki), so a central P has h^-1 dh + A_ij + A_jk + A_ki = 0 (the
    abelian cocycle).  By antisymmetry e_ij e_jk e_kl is both P_ijk P_ikl
    e_il and P_jkl P_ijl e_il, so a central P has delta h = 1.  The G
    layer's identities are the images of these under pi."""
    bundle.check_structure()
    cover, ext = bundle.cover, bundle.extension
    rng = np.random.default_rng(seed)
    n = bundle.nc
    res = {k: 0.0 for k in (
        "antisymmetry_e", "antisymmetry_Aij", "cocycle", "A_gluing",
        "curving_gluing")}

    def bump(key, stack):
        res[key] = max(res[key], _worst(stack))

    unit_e = np.eye(ext.E.dim)
    for (i, j) in overlap_pairs(n):
        if i > j:
            continue
        p = sample_region(cover, (i, j), rng, sample_count)
        v, w = _tangents(cover, rng, p, 2)
        eij, deij = bundle.e[(i, j)].jet(p, v)
        eji = bundle.e[(j, i)].value(p).entries
        aij = bundle.Aij[(i, j)](p, v)
        bump("antisymmetry_e", eij @ eji - unit_e)
        bump("antisymmetry_Aij", aij + bundle.Aij[(j, i)](p, v))
        # 0-connection gluing across the overlap
        ai, aj = bundle.A[i](p, v), bundle.A[j](p, v)
        eij_inv = np.linalg.inv(eij)
        bump("A_gluing", aj - eij_inv @ ai @ eij - eij_inv @ deij
             - ext.alg_include_mat(aij))
        # 1-connection gluing needs a tangent pair
        dAij = exterior_derivative(bundle.Aij[(i, j)])
        bump("curving_gluing", bundle.F[j](p, v, w) - bundle.F[i](p, v, w)
             - dAij(p, v, w))

    for (i, j, k) in itertools.combinations(range(n), 3):
        p = sample_region(cover, (i, j, k), rng, max(4, sample_count // 4))
        eij, ejk, eki = (bundle.e[ab].value(p).entries
                         for ab in ((i, j), (j, k), (k, i)))
        bump("cocycle", ext.project_mat(eij @ ejk @ eki) - np.eye(ext.G.dim))

    return ValidationReport(res, tol)


# --------------------------------------------------------------------------
# Gauge transformation
# --------------------------------------------------------------------------

def gauge_transform(bundle: TwistedBundleData,
                    gauge: GaugeData) -> TwistedBundleData:
    """The standard primed data of an equivalence of twisted bundles.  h',
    g' and D' are derived from e' and A', as for any bundle; since
    iota(H) is central, h'_ijk = h_ijk h_ij h_jk h_ki."""
    ext = bundle.extension
    n = bundle.nc
    dim_h, dim_e = ext.H.dim, ext.E.dim

    new_e, new_A, new_Aij, new_F = {}, {}, {}, {}

    for (i, j) in overlap_pairs(n):
        new_e[(i, j)] = gauge.e_i[i].inv().mul(bundle.e[(i, j)]) \
            .mul(gauge.e_i[j]).mul(
                gauge.h_ij[(i, j)].pushforward(ext.include_mat,
                                               ext.alg_include_mat, "E"))

    dBs = {i: exterior_derivative(gauge.B_i[i]) for i in range(n)}
    for i in range(n):
        ei = gauge.e_i[i]
        new_A[i] = ei.conjugated_form(bundle.A[i]) \
            + _push_form(gauge.B_i[i], ext.alg_include_mat, dim_e, "e") \
            + ei.maurer_cartan(dim_e)
        new_F[i] = bundle.F[i] + dBs[i]

    for (i, j) in overlap_pairs(n):
        mc = gauge.h_ij[(i, j)].maurer_cartan(dim_h)
        new_form = bundle.Aij[(i, j)] + gauge.B_i[j] + gauge.B_i[i] * (-1.0) \
            + mc * (-1.0)
        # H is abelian, so d(h^-1 dh) = 0 and dA'_ij has a closed form
        dAij = exterior_derivative(bundle.Aij[(i, j)])
        new_form.d = dAij + dBs[j] + dBs[i] * (-1.0)
        new_Aij[(i, j)] = new_form

    return TwistedBundleData(
        name=bundle.name + "+gauge", cover=bundle.cover, extension=ext,
        e=new_e, A=new_A, Aij=new_Aij, F=new_F)


def identity_gauge(bundle: TwistedBundleData) -> GaugeData:
    ext = bundle.extension
    n = bundle.nc
    return GaugeData(
        e_i={i: GroupMap.constant(np.eye(ext.E.dim), "E") for i in range(n)},
        h_ij={ij: GroupMap.constant(np.eye(ext.H.dim), "H")
              for ij in overlap_pairs(n)},
        B_i={i: zero_form(1, ext.H.dim, value_tag="h")
             for i in range(n)},
    )


def one_parameter_map(gen_matrix, phi_fn, tag) -> GroupMap:
    """x -> exp(phi(x) X) for a fixed generator X and a real scalar field
    phi, with the exact jet exp(phi X) X dphi (X commutes with exp(phi X))."""
    X = np.asarray(gen_matrix, dtype=complex)

    def exp_phi(f):
        f = np.asarray(f)
        return _exp_stack(f.reshape(-1, 1, 1) * X).reshape(f.shape + X.shape)

    def jet(p, d):
        ph = phi_fn(dm.seeded(p, d))
        ex = exp_phi(ph.val)
        return ex, ex @ X * np.asarray(ph.dot)[..., None, None]

    return GroupMap(jet, tag, lambda p: exp_phi(phi_fn(dm.columns(p))))


def _smooth_scalar(rng, dim, scale, periodic, basepoint=None):
    """A random smooth real field; integer frequencies when periodic, and
    shifted to vanish at the basepoint if one is given."""
    if periodic:
        w = 2.0 * np.pi * rng.integers(-2, 3, size=dim).astype(float)
    else:
        w = rng.normal(size=dim)
    b = rng.uniform(0, 2 * np.pi)
    amp = scale * rng.uniform(0.5, 1.0)

    def raw(pt):
        s = b
        for k in range(dim):
            s = s + w[k] * pt[k]
        return amp * dm.sin(s)

    if basepoint is None:
        return raw
    shift = float(np.real(value(raw(list(basepoint)))))
    return lambda pt: raw(pt) - shift


def _coeff_form(cfns, Y, tag) -> LocalForm:
    """sum_k c_k(x) dx_k . Y with scalar fields c_k, carrying its exact
    exterior derivative."""
    Y = np.asarray(Y, dtype=complex)

    def _dot(c, p, d):
        """D_d c at each point of a (..., n) stack."""
        return c(dm.seeded(p, d)).dot

    def evalfn(p, v):
        s = 0.0
        for k, c in enumerate(cfns):
            s = s + c(dm.columns(p)) * v[..., k]
        return np.asarray(s)[..., None, None] * Y

    def d_eval(p, v, w):
        total = 0.0
        for k, c in enumerate(cfns):
            total = total + _dot(c, p, v) * w[..., k] \
                - _dot(c, p, w) * v[..., k]
        return np.asarray(total)[..., None, None] * Y

    d = LocalForm(2, Y.shape[0], d_eval, tag)
    return LocalForm(1, Y.shape[0], evalfn, tag, d)


def random_gauge(bundle: TwistedBundleData, seed=0, scale=0.4,
                 based=True) -> GaugeData:
    """A random smooth gauge datum for `bundle`.

    Chart maps e_i are products of two one-parameter subgroups of E with
    random smooth exponents; overlap maps h_ij and the 1-forms B_i live
    in H.  With `based`, all exponents vanish at the basepoint so the
    gauge fixes the fibers over it.  When H is discrete, h_ij falls back
    to random constants and B_i to zero.
    """
    ext = bundle.extension
    model = bundle.cover.model
    rng = np.random.default_rng(seed)
    n = bundle.nc
    dim, periodic = model.ambient_dim, model.periodic
    bp = model.reduce(model.basepoint) if based else None

    def alg_gen(tag):
        x = log_principal(ext.random_mat(tag, rng))
        return 0.5 * (x - x.conj().T)

    e_i = {}
    for i in range(n):
        m1 = one_parameter_map(alg_gen("E"),
                               _smooth_scalar(rng, dim, scale, periodic, bp),
                               "E")
        m2 = one_parameter_map(alg_gen("E"),
                               _smooth_scalar(rng, dim, scale, periodic, bp),
                               "E")
        e_i[i] = m1.mul(m2)

    h_ij = {}
    for (i, j) in overlap_pairs(n):
        if i > j:
            continue
        if ext.discrete_kernel:
            h_ij[(i, j)] = GroupMap.constant(ext.random_mat("H", rng), "H")
        else:
            h_ij[(i, j)] = one_parameter_map(
                alg_gen("H"),
                _smooth_scalar(rng, dim, scale, periodic, bp), "H")
        h_ij[(j, i)] = h_ij[(i, j)].inv()

    B_i = {}
    for i in range(n):
        if ext.discrete_kernel:
            B_i[i] = zero_form(1, ext.H.dim, value_tag="h")
        else:
            cfns = [_smooth_scalar(rng, dim, scale, periodic)
                    for _ in range(dim)]
            B_i[i] = _coeff_form(cfns, alg_gen("H"), "h")

    return GaugeData(e_i=e_i, h_ij=h_ij, B_i=B_i)
