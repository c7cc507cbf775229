"""Twisted principal bundles with connection, stored as local data over a
cover: transition maps, the fiber 2-cocycle, and the three layers of
connection forms, plus validation, gauge transformation and flatness.

Group-valued local maps are carried by GroupMap, whose jets are exact:
defining functions are evaluated on dual numbers, products and inverses
follow the product rule, and a map pushed through a homomorphism of
the extension is differentiated through that homomorphism's
differential.  Forms carry their exterior derivatives (see
formsexpr.forms), so no identity checked here involves a finite
difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

import scipy.linalg

from . import dual as dm
from .dual import Dual, value
from .errors import ChartMismatch, MissingField, TagMismatch
from .formsexpr.forms import LocalForm, exterior_derivative, native_form, zero_form
from .liecore import CentralExtension, GroupElement, mat_norm


def _seeded_point(point, direction):
    return [Dual(float(p), float(d)) for p, d in zip(point, direction)]


def _split(matrix_rows):
    """Nested Dual/complex entries -> (value matrix, derivative matrix)."""
    rows = list(matrix_rows)
    n = len(rows)
    m = len(rows[0])
    val = np.empty((n, m), dtype=complex)
    dot = np.empty((n, m), dtype=complex)
    for r in range(n):
        for c in range(m):
            entry = rows[r][c]
            if isinstance(entry, Dual):
                val[r, c] = entry.val
                dot[r, c] = entry.dot
            else:
                val[r, c] = entry
                dot[r, c] = 0.0
    return val, dot


class GroupMap:
    """A smooth group-valued map on (part of) the model, with exact jets.

    jet(point, direction) returns the pair (g(p), derivative of g at p
    along the ambient direction).
    """

    def __init__(self, jet_fn, tag, value_fn=None):
        self._jet = jet_fn
        self.tag = tag
        self._value = value_fn

    @classmethod
    def from_dual_fn(cls, fn, tag):
        """fn maps a list of coordinate scalars (floats or Duals) to a
        nested-list/array square matrix."""

        def jet(point, direction):
            return _split(fn(_seeded_point(point, direction)))

        def val(point):
            v, _ = _split(fn([float(p) for p in point]))
            return v

        return cls(jet, tag, val)

    @classmethod
    def constant(cls, matrix, tag):
        m = np.array(matrix, dtype=complex)
        z = np.zeros_like(m)
        return cls(lambda p, d: (m, z), tag, lambda p: m)

    def value(self, point) -> GroupElement:
        if self._value is not None:
            return GroupElement(self._value(point), self.tag)
        v, _ = self._jet(point, np.zeros(len(point)))
        return GroupElement(v, self.tag)

    def jet(self, point, direction):
        return self._jet(point, direction)

    # --- combinators (all propagate exact derivatives) ------------------

    def mul(self, other: "GroupMap") -> "GroupMap":
        if other.tag != self.tag:
            raise TagMismatch(f"{self.tag} * {other.tag}")

        def jet(p, d):
            a, da = self._jet(p, d)
            b, db = other._jet(p, d)
            return a @ b, da @ b + a @ db

        return GroupMap(jet, self.tag,
                        lambda p: self.value(p).entries @ other.value(p).entries)

    def inv(self) -> "GroupMap":
        def jet(p, d):
            a, da = self._jet(p, d)
            ai = np.linalg.inv(a)
            return ai, -ai @ da @ ai

        return GroupMap(jet, self.tag,
                        lambda p: np.linalg.inv(self.value(p).entries))

    def power(self, n: int) -> "GroupMap":
        if n == 0:
            raise ValueError("use GroupMap.constant for the unit")
        base = self if n > 0 else self.inv()
        out = base
        for _ in range(abs(n) - 1):
            out = out.mul(base)
        return out

    def pushforward(self, hom, alg_hom, tag) -> "GroupMap":
        """Compose with a group homomorphism `hom` on matrices (an
        extension's include or project map) whose differential is
        `alg_hom`; the jet is exact: d hom(a) = hom(a) . alg_hom(a^-1 da)."""

        def jet(p, d):
            a, da = self._jet(p, d)
            v = hom(a)
            return v, v @ alg_hom(np.linalg.inv(a) @ da)

        return GroupMap(jet, tag, lambda p: hom(self.value(p).entries))

    # --- derived forms --------------------------------------------------

    def maurer_cartan(self, dim, coord_names, value_tag=None) -> LocalForm:
        """The 1-form g^-1 dg."""
        def evalfn(p, v):
            a, da = self._jet(p, v)
            return np.linalg.inv(a) @ da

        return LocalForm(1, dim, coord_names, evalfn,
                         value_tag or self.tag.lower())

    def conjugated_form(self, form: LocalForm) -> LocalForm:
        """(p, v) -> g(p)^-1 form(p, v) g(p)."""
        def evalfn(p, v):
            a = self.value(p).entries
            return np.linalg.inv(a) @ form(p, v) @ a

        return LocalForm(form.degree, form.dim, form.coord_names, evalfn,
                         form.value_tag)


def add_forms(*forms):
    out = forms[0]
    for f in forms[1:]:
        out = out + f
    return out


# --------------------------------------------------------------------------
# Region sampling
# --------------------------------------------------------------------------

def sample_region(cover, indices, rng, count):
    """Random points lying in every margin-shrunk chart of `indices`."""
    out = []
    charts = [cover.charts[i] for i in indices]
    for _ in range(20000):
        p = cover.model.random_point(rng)
        q = cover.model.reduce(p)
        if all(c.contains(q, with_margin=True) for c in charts):
            out.append(q)
            if len(out) == count:
                return out
    raise ChartMismatch(
        f"could not sample region {tuple(indices)}: overlap too small?")


def overlap_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def overlap_triples(n):
    return [t for t in itertools.permutations(range(n), 3)]


# --------------------------------------------------------------------------
# Bundle data
# --------------------------------------------------------------------------

@dataclass
class TwistedBundleData:
    """Local data of a twisted bundle with 0- and 1-connection."""

    name: str
    cover: object
    extension: CentralExtension
    g: dict          # (i,j) -> GroupMap into G
    e: dict          # (i,j) -> GroupMap into E
    h: dict          # (i,j,k) -> GroupMap into H
    D: dict          # i -> degree-1 LocalForm valued in L(G)
    A: dict          # i -> degree-1 LocalForm valued in L(E)
    Aij: dict        # (i,j) -> degree-1 LocalForm valued in L(H)
    F: dict          # i -> degree-2 LocalForm valued in L(H)
    params: dict = field(default_factory=dict)

    @property
    def nc(self):
        return len(self.cover)

    def check_structure(self):
        n = self.nc
        for i in range(n):
            for store, label in ((self.D, "D"), (self.A, "A"), (self.F, "F")):
                if i not in store:
                    raise MissingField(f"{label}[{i}] missing")
        for ij in overlap_pairs(n):
            for store, label in ((self.g, "g"), (self.e, "e"),
                                 (self.Aij, "A_ij")):
                if ij not in store:
                    raise MissingField(f"{label}[{ij}] missing")
        for ijk in overlap_triples(n):
            if ijk not in self.h:
                raise MissingField(f"h[{ijk}] missing")


@dataclass
class GaugeData:
    """A Čech gauge: e_i per chart, h_ij per overlap, B_i 1-forms."""

    e_i: dict        # i -> GroupMap into E
    h_ij: dict       # (i,j) -> GroupMap into H, with h_ji = h_ij^-1
    B_i: dict        # i -> degree-1 LocalForm valued in L(H)

    def g_i(self, ext, i) -> GroupMap:
        return self.e_i[i].pushforward(ext.project_mat, ext.alg_project_mat,
                                       "G")


@dataclass
class ValidationReport:
    residuals: dict
    tol: float
    samples: int

    @property
    def max_residual(self):
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self):
        return self.max_residual <= self.tol

    def worst(self):
        return max(self.residuals, key=self.residuals.get)


@dataclass
class CurvatureReport:
    h_constancy: float        # max deviation of any h_ijk from its mean
    curvature_norm: float     # max |dF_i| sample (0 by degree on surfaces)
    tol: float

    @property
    def flat_bundle(self):
        return self.h_constancy <= self.tol

    @property
    def flat_connection(self):
        return self.curvature_norm <= self.tol


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def _rand_tangent(cover, rng, p):
    return cover.model.random_tangent(rng, p)


def validate(bundle: TwistedBundleData, sample_count=40, tol=1e-8,
             seed=0) -> ValidationReport:
    """Numerically check every local identity at random region samples."""
    bundle.check_structure()
    cover, ext = bundle.cover, bundle.extension
    rng = np.random.default_rng(seed)
    n = bundle.nc
    res = {k: 0.0 for k in (
        "antisymmetry_e", "antisymmetry_g", "antisymmetry_Aij",
        "projection", "cocycle", "h_coboundary",
        "A_gluing", "abelian_cocycle", "D_gluing", "D_projection",
        "curving_gluing")}

    def bump(key, v):
        res[key] = max(res[key], float(v))

    unit_e = np.eye(ext.E.dim)
    for (i, j) in overlap_pairs(n):
        if i > j:
            continue
        pts = sample_region(cover, (i, j), rng, sample_count)
        for p in pts:
            v = _rand_tangent(cover, rng, p)
            eij, deij = bundle.e[(i, j)].jet(p, v)
            eji = bundle.e[(j, i)].value(p).entries
            gij = bundle.g[(i, j)].value(p).entries
            gji = bundle.g[(j, i)].value(p).entries
            bump("antisymmetry_e", mat_norm(eij @ eji - unit_e))
            bump("antisymmetry_g", mat_norm(gij @ gji - np.eye(ext.G.dim)))
            bump("antisymmetry_Aij",
                 mat_norm(bundle.Aij[(i, j)](p, v) + bundle.Aij[(j, i)](p, v)))
            bump("projection", mat_norm(ext.project_mat(eij) - gij))
            # 0-connection gluing across the overlap
            ai = bundle.A[i](p, v)
            aj = bundle.A[j](p, v)
            eij_inv = np.linalg.inv(eij)
            glue = aj - eij_inv @ ai @ eij - eij_inv @ deij \
                - ext.alg_include_mat(bundle.Aij[(i, j)](p, v))
            bump("A_gluing", mat_norm(glue))
            # plain G-connection gluing
            gmap = bundle.g[(i, j)]
            gv, dgv = gmap.jet(p, v)
            gv_inv = np.linalg.inv(gv)
            dglue = bundle.D[j](p, v) - gv_inv @ bundle.D[i](p, v) @ gv \
                - gv_inv @ dgv
            bump("D_gluing", mat_norm(dglue))
            bump("D_projection",
                 mat_norm(ext.alg_project_mat(ai) - bundle.D[i](p, v)))
            # 1-connection gluing needs a tangent pair
            w = _rand_tangent(cover, rng, p)
            dAij = exterior_derivative(bundle.Aij[(i, j)])
            bump("curving_gluing",
                 mat_norm(bundle.F[j](p, v, w) - bundle.F[i](p, v, w)
                          - dAij(p, v, w)))

    for (i, j, k) in overlap_triples(n):
        if not (i < j and j < k):
            continue
        pts = sample_region(cover, (i, j, k), rng,
                            max(4, sample_count // 4))
        for p in pts:
            v = _rand_tangent(cover, rng, p)
            eij = bundle.e[(i, j)].value(p).entries
            ejk = bundle.e[(j, k)].value(p).entries
            eki = bundle.e[(k, i)].value(p).entries
            hijk, dhijk = bundle.h[(i, j, k)].jet(p, v)
            bump("cocycle",
                 mat_norm(eij @ ejk @ eki - ext.include_mat(hijk)))
            total = (bundle.Aij[(i, j)](p, v) + bundle.Aij[(j, k)](p, v)
                     + bundle.Aij[(k, i)](p, v))
            bump("abelian_cocycle",
                 mat_norm(total + np.linalg.inv(hijk) @ dhijk))

    for quad in itertools.combinations(range(n), 4):
        i, j, k, l = quad
        pts = sample_region(cover, quad, rng, max(3, sample_count // 8))
        for p in pts:
            hv = {t: bundle.h[t].value(p).entries
                  for t in ((j, k, l), (i, k, l), (i, j, l), (i, j, k))}
            delta = hv[(j, k, l)] @ np.linalg.inv(hv[(i, k, l)]) \
                @ hv[(i, j, l)] @ np.linalg.inv(hv[(i, j, k)])
            bump("h_coboundary", mat_norm(delta - np.eye(ext.H.dim)))
    if n < 4:
        res.pop("h_coboundary")

    return ValidationReport(res, tol, sample_count)


# --------------------------------------------------------------------------
# Gauge transformation
# --------------------------------------------------------------------------

def gauge_transform(bundle: TwistedBundleData,
                    gauge: GaugeData) -> TwistedBundleData:
    """The standard primed data of an equivalence of twisted bundles."""
    ext = bundle.extension
    n = bundle.nc
    coord_names = bundle.cover.model.coord_names
    dim_h, dim_e, dim_g = ext.H.dim, ext.E.dim, ext.G.dim

    g_i = {i: gauge.g_i(ext, i) for i in range(n)}

    new_g, new_e, new_h = {}, {}, {}
    new_D, new_A, new_Aij, new_F = {}, {}, {}, {}

    for (i, j) in overlap_pairs(n):
        new_g[(i, j)] = g_i[i].inv().mul(bundle.g[(i, j)]).mul(g_i[j])
        new_e[(i, j)] = gauge.e_i[i].inv().mul(bundle.e[(i, j)]) \
            .mul(gauge.e_i[j]).mul(
                gauge.h_ij[(i, j)].pushforward(ext.include_mat,
                                               ext.alg_include_mat, "E"))

    for (i, j, k) in overlap_triples(n):
        new_h[(i, j, k)] = bundle.h[(i, j, k)] \
            .mul(gauge.h_ij[(i, j)]).mul(gauge.h_ij[(j, k)]) \
            .mul(gauge.h_ij[(k, i)])

    for i in range(n):
        gi = g_i[i]
        new_D[i] = add_forms(gi.conjugated_form(bundle.D[i]),
                             gi.maurer_cartan(dim_g, coord_names, "g"))
        ei = gauge.e_i[i]
        iota_B = _include_form(ext, gauge.B_i[i], dim_e, coord_names)
        new_A[i] = add_forms(ei.conjugated_form(bundle.A[i]), iota_B,
                             ei.maurer_cartan(dim_e, coord_names, "e"))
        dB = exterior_derivative(gauge.B_i[i])
        new_F[i] = bundle.F[i] + dB

    dBs = {i: exterior_derivative(gauge.B_i[i]) for i in range(n)}
    for (i, j) in overlap_pairs(n):
        mc = gauge.h_ij[(i, j)].maurer_cartan(dim_h, coord_names, "h")
        new_form = add_forms(bundle.Aij[(i, j)], gauge.B_i[j],
                             gauge.B_i[i] * (-1.0), mc * (-1.0))
        # H is abelian, so d(h^-1 dh) = 0 and dA'_ij has a closed form
        dAij = exterior_derivative(bundle.Aij[(i, j)])
        new_form.d = add_forms(dAij, dBs[j], dBs[i] * (-1.0))
        new_Aij[(i, j)] = new_form

    return TwistedBundleData(
        name=bundle.name + "+gauge", cover=bundle.cover, extension=ext,
        g=new_g, e=new_e, h=new_h, D=new_D, A=new_A, Aij=new_Aij, F=new_F,
        params=dict(bundle.params))


def _include_form(ext, form_h: LocalForm, dim_e, coord_names) -> LocalForm:
    def evalfn(p, *t):
        return ext.alg_include_mat(form_h(p, *t))

    return LocalForm(form_h.degree, dim_e, coord_names, evalfn, "e")


def identity_gauge(bundle: TwistedBundleData) -> GaugeData:
    ext = bundle.extension
    n = bundle.nc
    coords = bundle.cover.model.coord_names
    return GaugeData(
        e_i={i: GroupMap.constant(np.eye(ext.E.dim), "E") for i in range(n)},
        h_ij={ij: GroupMap.constant(np.eye(ext.H.dim), "H")
              for ij in overlap_pairs(n)},
        B_i={i: zero_form(1, ext.H.dim, coords, value_tag="h")
             for i in range(n)},
    )


def one_parameter_map(gen_matrix, phi_fn, tag) -> GroupMap:
    """x -> exp(phi(x) X) for a fixed anti-Hermitian generator X and a
    real scalar field phi, with exact jets via the eigenbasis of X."""
    X = np.asarray(gen_matrix, dtype=complex)
    lam, V = np.linalg.eigh(1j * X)      # X = V diag(-i lam) V^dagger
    Vd = V.conj().T

    def jet(p, d):
        ph = phi_fn(_seeded_point(p, d))
        pv, pd = (ph.val, ph.dot) if isinstance(ph, Dual) else (ph, 0.0)
        ex = np.exp(-1j * lam * pv)
        return (V * ex) @ Vd, (V * (-1j * lam * ex * pd)) @ Vd

    def val(p):
        ph = phi_fn([float(c) for c in p])
        return (V * np.exp(-1j * lam * complex(ph))) @ Vd

    return GroupMap(jet, tag, val)


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


def _coeff_form(cfns, Y, coords, tag) -> LocalForm:
    """sum_k c_k(x) dx_k . Y with scalar fields c_k, carrying its exact
    exterior derivative."""
    Y = np.asarray(Y, dtype=complex)

    def _dot(c, p, d):
        """D_d c at one point, or at each point of an (N, n) stack."""
        ph = c([Dual(x, y) for x, y in zip(p.T, d.T)])
        return ph.dot if isinstance(ph, Dual) else 0.0

    def evalfn(p, v):
        s = 0.0
        for k, c in enumerate(cfns):
            s = s + value(c([float(x) for x in p])) * v[k]
        return s * Y

    def d_eval(p, v, w):
        total = 0.0
        for k, c in enumerate(cfns):
            total = total + _dot(c, p, v) * w[..., k] \
                - _dot(c, p, w) * v[..., k]
        return np.asarray(total)[..., None, None] * Y

    d = native_form(2, d_eval, Y.shape[0], coords, value_tag=tag)
    return native_form(1, evalfn, Y.shape[0], coords, value_tag=tag, d=d)


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
    coords = model.coord_names
    dim = len(coords)
    periodic = model.kind == "torus"
    bp = model.reduce(model.basepoint) if based else None

    def alg_gen(tag):
        x = scipy.linalg.logm(ext.random_mat(tag, rng))
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
            B_i[i] = zero_form(1, ext.H.dim, coords, value_tag="h")
        else:
            cfns = [_smooth_scalar(rng, dim, scale, periodic)
                    for _ in range(dim)]
            B_i[i] = _coeff_form(cfns, alg_gen("H"), coords, "h")

    return GaugeData(e_i=e_i, h_ij=h_ij, B_i=B_i)


# --------------------------------------------------------------------------
# Flatness
# --------------------------------------------------------------------------

def is_flat(bundle: TwistedBundleData, sample_count=40, tol=1e-6,
            seed=0) -> CurvatureReport:
    """h-constancy per triple overlap; dF is zero by degree on surfaces."""
    cover = bundle.cover
    rng = np.random.default_rng(seed)
    n = bundle.nc
    worst = 0.0
    for (i, j, k) in overlap_triples(n):
        if not (i < j and j < k):
            continue
        pts = sample_region(cover, (i, j, k), rng, sample_count)
        vals = np.array([bundle.h[(i, j, k)].value(p).entries for p in pts])
        mean = vals.mean(axis=0)
        worst = max(worst, float(max(mat_norm(v - mean) for v in vals)))
    return CurvatureReport(h_constancy=worst, curvature_norm=0.0, tol=tol)
