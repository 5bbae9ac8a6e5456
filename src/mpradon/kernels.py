"""Dyadic multi-parameter kernel sequences.

A kernel is represented only by its finite dyadic data: a map from the
index k in N^nu to an entry, each entry a finite signed sum of
scheme-dilated tensor bumps.  The represented distribution is

    K(t) = sum_k  entry_k^{(2^k)}(t),

where f^{(delta)}(t) = delta^{e_1+...+e_N} f(delta t).  On top of this the
module provides

  * ``verify_cancellation`` -- exact slice masses int entry_k dt^mu for
    every mu with k_mu != 0 (t^mu = coordinates with e_i^mu != 0).  A slice
    whose every atom has an inner factor with coefficients summing to
    exactly 0 is certified 0 outright; any other slice is sampled on a grid
    of the remaining coordinates;

  * ``sample_product_kernel_bounds`` -- for 2-parameter product schemes,
    the weighted sup |d^alpha K| |s|^{1+a1} |t|^{1+a2} over samples off the
    axes, the quantity whose finiteness characterizes product kernels; each
    1-D factor is evaluated once per distinct coordinate of its axis;

  * ``regroup_to_dyadic`` -- rewrites sum_{k<=M} bump^{(tau 2^{k n})} in
    dyadic normal form sum_i entry_i^{(2^i)} with per-entry scale factors
    in [1, 2)^nu (exact identity of finite smooth sums);

  * ``telescope_decompose`` -- the alternating-sign telescoping that
    rewrites sum_k bump_k^{(2^k v)} for a general scale vector v bracketed
    by powers of two, preserving cancellation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Mapping, Sequence

import numpy as np

from .bumps import BumpCombination, TensorBump
from .dilations import ExponentScheme, dilation_factors
from .quadrature import tensor_grid


@dataclass(frozen=True)
class ScaledAtom:
    """coef * atom^{(delta)} under the ambient scheme's dilations."""

    coef: float
    atom: TensorBump
    delta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coef", float(self.coef))
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        if any(d <= 0 for d in self.delta):
            raise ValueError("atom dilation parameters must be positive")


class KernelEntry:
    """A finite signed sum of dilated tensor bumps (one dyadic entry)."""

    def __init__(self, scheme: ExponentScheme, atoms: Sequence[ScaledAtom]):
        self.scheme = scheme
        self.atoms = tuple(atoms)
        # per atom: coordinate factors delta^{e_i} and their product (the jacobian)
        dilations = []
        for sa in self.atoms:
            if len(sa.delta) != scheme.n_params:
                raise ValueError("atom delta arity disagrees with the scheme")
            if sa.atom.dimension != scheme.n_t:
                raise ValueError("atom dimension disagrees with the scheme")
            factors = dilation_factors(sa.delta, scheme)
            if 0.0 in factors:
                raise ValueError(f"atom delta {sa.delta} underflows a dilation factor to 0")
            if math.inf in factors:
                raise ValueError(f"atom delta {sa.delta} overflows a dilation factor to inf")
            dilations.append((np.array(factors, dtype=float), math.prod(factors)))
        self.dilations: tuple[tuple[np.ndarray, float], ...] = tuple(dilations)

    def __call__(self, points) -> np.ndarray:
        return self.derivative_values(points, (0,) * self.scheme.n_t)

    def derivative_values(self, points, orders: Sequence[int]) -> np.ndarray:
        if len(orders) != self.scheme.n_t:
            raise ValueError(f"orders must have {self.scheme.n_t} entries, got {len(orders)}")
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for sa, (factors, jac) in zip(self.atoms, self.dilations):
            chain = float(np.prod(factors ** np.array(orders, dtype=float)))
            out += sa.coef * jac * chain * sa.atom.derivative_values(pts * factors, orders)
        return out

    def support_box(self) -> list[tuple[float, float]]:
        if not self.atoms:
            return [(0.0, 0.0)] * self.scheme.n_t
        lo, hi = [math.inf] * self.scheme.n_t, [-math.inf] * self.scheme.n_t
        for sa, (factors, _) in zip(self.atoms, self.dilations):
            for i, (alo, ahi) in enumerate(sa.atom.support_box()):
                lo[i], hi[i] = min(lo[i], alo / factors[i]), max(hi[i], ahi / factors[i])
        return list(zip(lo, hi))

    def scaled(self, delta: Sequence[float]) -> "KernelEntry":
        """entry^{(delta)}, composing dilations: (f^{(d)})^{(d')} = f^{(d d')}."""
        delta = tuple(float(d) for d in delta)
        return KernelEntry(
            self.scheme,
            [
                ScaledAtom(sa.coef, sa.atom, tuple(a * b for a, b in zip(sa.delta, delta)))
                for sa in self.atoms
            ],
        )


@dataclass(frozen=True)
class DyadicKernelSeq:
    """Finite dyadic data {entry_k} for K = sum entry_k^{(2^k)}."""

    scheme: ExponentScheme
    support_radius: float
    entries: Mapping[tuple[int, ...], KernelEntry]

    def __post_init__(self):
        object.__setattr__(self, "support_radius", float(self.support_radius))
        clean = {}
        for k, entry in self.entries.items():
            k = tuple(int(v) for v in k)
            if len(k) != self.scheme.n_params or any(v < 0 for v in k):
                raise ValueError(f"dyadic index {k} must lie in N^{self.scheme.n_params}")
            clean[k] = entry
        object.__setattr__(self, "entries", clean)

    def indices(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def __call__(self, points) -> np.ndarray:
        """The represented sum  sum_k entry_k^{(2^k)} at the given points."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for k in self.indices():
            out += self.entries[k].scaled(_dyadic_scale(k))(pts)
        return out


def _dyadic_scale(k: tuple[int, ...]) -> list[float]:
    """2^k componentwise; a component beyond 1023 overflows a float."""
    if max(k, default=0) > 1023:
        raise ValueError(f"entry {k}: the scale 2^{max(k)} is beyond float range (2^1023 at most)")
    return [2.0**v for v in k]


@dataclass(frozen=True)
class SliceCheck:
    index: tuple[int, ...]
    mu: int
    max_abs: float
    exact_zero: bool = False  # certified 0 without sampling


@dataclass(frozen=True)
class CancellationReport:
    checks: tuple[SliceCheck, ...]
    support_violations: tuple[tuple[tuple[int, ...], float], ...]
    tolerance: float

    @property
    def max_abs(self) -> float:
        """The largest slice integral; nan when any slice reads nan."""
        return float(np.max([c.max_abs for c in self.checks])) if self.checks else 0.0

    @property
    def exact_zero_slices(self) -> int:
        return sum(c.exact_zero for c in self.checks)

    @property
    def passed(self) -> bool:
        return not self.failing() and not self.support_violations

    def failing(self) -> list[SliceCheck]:
        """Slices above the tolerance, and those whose integral is not finite."""
        return [c for c in self.checks if not c.max_abs <= self.tolerance]


def verify_cancellation(
    seq: DyadicKernelSeq,
    tolerance: float = 1e-9,
) -> CancellationReport:
    """Check int entry_k dt^mu == 0 (k_mu != 0), exactly where the data allow.

    The slice integral of a dilated tensor atom factorizes into 1-D integrals
    over the inner coordinates times the atom's values at the outer ones.
    Each inner factor is a combination sum_j c_j psi_{x_j,r_j} of unit-mass
    atoms, so its integral after the dilation u -> f u is (sum_j c_j) / f in
    closed form: no quadrature, however far apart the atom scales sit.

    An atom with an inner factor whose coefficients sum to exactly 0 (and a
    finite coefficient * jacobian) contributes exactly 0 and is dropped.  A
    slice with no atoms left is certified 0.0 (``exact_zero``) without
    sampling.  Any other slice is sampled over its remaining atoms at 9
    points per outer axis of the entry's support box.  A
    slice whose integral is not finite fails.
    """
    checks: list[SliceCheck] = []
    violations: list[tuple[tuple[int, ...], float]] = []
    n_t = seq.scheme.n_t
    slices = [sorted(set(seq.scheme.slice_coordinates(mu))) for mu in range(seq.scheme.n_params)]
    for k in seq.indices():
        entry = seq.entries[k]
        box = entry.support_box()
        radius = max(max(abs(lo), abs(hi)) for lo, hi in box)
        if radius > seq.support_radius + 1e-12:
            violations.append((k, radius))
        for mu, inner in enumerate(slices):
            if k[mu] == 0:
                continue
            outer = [i for i in range(n_t) if i not in inner]
            # per kept atom: coefficient * jacobian * prod of inner 1-D masses
            kept = []
            for sa, (factors, jac) in zip(entry.atoms, entry.dilations):
                weight = sa.coef * jac
                if math.isfinite(weight) and any(sa.atom.factors[i].exact_zero_mass for i in inner):
                    continue
                for i in inner:
                    weight *= sa.atom.factors[i].moment_closed_form(0) / factors[i]
                kept.append((weight, sa, factors))
            if not kept:
                checks.append(SliceCheck(k, mu, 0.0, exact_zero=True))
                continue
            if outer:
                outer_pts = tensor_grid([np.linspace(*box[i], 9) for i in outer])
                acc = np.zeros(outer_pts.shape[0])
                for weight, sa, factors in kept:
                    vals = np.full(outer_pts.shape[0], weight)
                    for col, i in enumerate(outer):
                        vals = vals * sa.atom.factors[i](factors[i] * outer_pts[:, col])
                    acc += vals
                worst = float(np.max(np.abs(acc)))
            else:
                worst = float(abs(sum(weight for weight, _, _ in kept)))
            checks.append(SliceCheck(k, mu, worst))
    return CancellationReport(tuple(checks), tuple(violations), tolerance)


@dataclass(frozen=True)
class ProductBoundEstimate:
    alpha: tuple[int, int]
    truncation: int
    constant: float


def sample_product_kernel_bounds(
    seq: DyadicKernelSeq,
    truncations: Sequence[int],
    alphas: Sequence[tuple[int, int]] = ((0, 0),),
    samples: np.ndarray | None = None,
) -> list[ProductBoundEstimate]:
    """sup over samples of |d^alpha K_M(s,t)| |s|^{1+a1} |t|^{1+a2}.

    K_M sums the entries with |k|_1 <= M.  Samples must avoid the axes;
    the default grid is log-spaced in |s|, |t| with all four sign pairs.

    Each atom is a product of 1-D factors, so each factor derivative is
    evaluated only at the distinct coordinates of its axis (48 on the
    default grid), once per (axis, factor, dilation factor, order) in the
    call, and gathered to the samples.  The arithmetic per sample is that of
    ``KernelEntry.derivative_values`` on the scaled entries.
    """
    if seq.scheme.n_t != 2 or seq.scheme.n_params != 2:
        raise ValueError("product-kernel bounds need the 2-parameter product scheme")
    if any(m_cut < 0 for m_cut in truncations):
        raise ValueError(f"truncations must be nonnegative, got {sorted(truncations)}")
    for alpha in alphas:
        if len(alpha) != 2 or any(not isinstance(a, int) or a < 0 for a in alpha):
            raise ValueError(f"alpha {tuple(alpha)}: a derivative order is two nonnegative integers")
    if samples is None:
        mags = np.geomspace(1e-4, seq.support_radius, 24)
        quadrant = tensor_grid([mags, mags])
        samples = np.concatenate([quadrant * sign for sign in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    samples = np.asarray(samples, dtype=float)
    if np.any(samples == 0.0):
        raise ValueError("sample points must stay off the coordinate axes")
    axes = [np.unique(samples[:, i], return_inverse=True) for i in range(2)]
    values: dict[tuple, np.ndarray] = {}

    def factor_values(i: int, factor, scale: float, order: int) -> np.ndarray:
        coords, inverse = axes[i]
        key = (i, factor, scale, order)
        vals = values.get(key)
        if vals is None:
            vals = values[key] = factor.derivative_values(coords * scale, order)
        return vals[inverse]

    # one pass over the entries in index order: each is scaled once, evaluated
    # once per alpha and added to the sum of every truncation that keeps it
    accs = [[np.zeros(samples.shape[0]) for _ in truncations] for _ in alphas]
    for k in seq.indices():
        keep = [t for t, m_cut in enumerate(truncations) if sum(k) <= m_cut]
        if not keep:
            continue
        entry = seq.entries[k].scaled(_dyadic_scale(k))
        for (a1, a2), alpha_accs in zip(alphas, accs):
            orders = np.array((a1, a2), dtype=float)
            vals = np.zeros(samples.shape[0])
            for sa, (factors, jac) in zip(entry.atoms, entry.dilations):
                chain = float(np.prod(factors**orders))
                prod_vals = factor_values(0, sa.atom.factors[0], float(factors[0]), a1)
                prod_vals = prod_vals * factor_values(1, sa.atom.factors[1], float(factors[1]), a2)
                vals += sa.coef * jac * chain * prod_vals
            for t in keep:
                alpha_accs[t] += vals
    out: list[ProductBoundEstimate] = []
    for (a1, a2), alpha_accs in zip(alphas, accs):
        weight = np.abs(samples[:, 0]) ** (1 + a1) * np.abs(samples[:, 1]) ** (1 + a2)
        out += [
            ProductBoundEstimate((a1, a2), m_cut, float(np.max(np.abs(acc) * weight)))
            for m_cut, acc in zip(truncations, alpha_accs)
        ]
    return out


def regroup_to_dyadic(
    atom: TensorBump,
    tilde_tau: Sequence[float],
    direction: Sequence[float],
    m_max: int,
    scheme: ExponentScheme | None = None,
) -> DyadicKernelSeq:
    """Regroup sum_{0<=k<=M} atom^{(tau 2^{k n})} as sum_i entry_i^{(2^i)}.

    Each k lands in the unique bucket i = floor(k n + log2 tau); the leftover
    scale tau 2^{k n - i} lies in [1, 2)^nu.  Requires k n + log2 tau > 0
    componentwise for all k <= M ("tau >> M").
    """
    scheme = scheme or ExponentScheme.product(atom.dimension)
    nu = scheme.n_params
    tau = [float(v) for v in tilde_tau]
    n_dir = [float(v) for v in direction]
    if len(tau) != nu or len(n_dir) != nu:
        raise ValueError(f"tilde_tau and direction must have {nu} components")
    if any(v <= 0 for v in tau):
        raise ValueError("tilde_tau must be positive")
    log_tau = [math.log2(v) for v in tau]
    buckets: dict[tuple[int, ...], list[ScaledAtom]] = {}
    for k in range(m_max + 1):
        exponent = [k * n + lt for n, lt in zip(n_dir, log_tau)]
        if any(v <= 0 for v in exponent):
            raise ValueError(
                f"precondition tau >> M violated: k={k} gives k*n + log2(tau) = {exponent}"
            )
        i = tuple(int(math.floor(v)) for v in exponent)
        residual = tuple(t * 2.0 ** (k * n - ii) for t, n, ii in zip(tau, n_dir, i))
        assert all(1.0 <= r < 2.0 for r in residual)
        buckets.setdefault(i, []).append(ScaledAtom(1.0, atom, residual))
    entries = {i: KernelEntry(scheme, atoms) for i, atoms in buckets.items()}
    radius = max(
        max(abs(lo), abs(hi)) for e in entries.values() for lo, hi in e.support_box()
    )
    return DyadicKernelSeq(scheme, radius, entries)


def _positive_part(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(max(x, 0) for x in v)


def telescope_decompose(
    atoms: Mapping[tuple[int, ...], TensorBump] | Callable[[tuple[int, ...]], TensorBump],
    m_j: Sequence[int],
    scale_vector: Sequence[float],
    m_max: int,
    scheme: ExponentScheme | None = None,
) -> DyadicKernelSeq:
    """Telescoping normal form of sum_{k >= m_j, |k - m_j| <= M} atom_{k-m_j}^{(2^{k-m_j} v)}.

    Writes the sum as sum_l phi_l^{(2^l)} with

        phi_l = sum_{p in {0,1}^nu, l-p >= 0, p <= (m_j+1-l)_+}
                    (-1)^{|p|_1} atom_{(l-m_j)_+}^{(2^{-p-m_j} v)},

    truncated to |(l-m_j)_+|_1 <= M.  Requires the componentwise bracketing
    2^{m_j+1} <= v < 2^{m_j+2}; the inner scales 2^{-p-m_j} v then lie in
    [1, 4), uniformly.  Interior telescoping layers cancel because
    sum_mu (-1)^mu C(nu0, mu) = 0.
    """
    m_j = tuple(int(v) for v in m_j)
    v = tuple(float(x) for x in scale_vector)
    nu = len(m_j)
    if len(v) != nu:
        raise ValueError("scale vector and m_j must have the same arity")
    for mu in range(nu):
        if not (2.0 ** (m_j[mu] + 1) <= v[mu] < 2.0 ** (m_j[mu] + 2)):
            raise ValueError(
                f"bracketing violated in component {mu}: need 2^{m_j[mu]+1} <= {v[mu]} < 2^{m_j[mu]+2}"
            )
    get_atom = atoms.__getitem__ if isinstance(atoms, Mapping) else atoms
    probe = get_atom(tuple(0 for _ in range(nu)))
    scheme = scheme or ExponentScheme.product(probe.dimension)
    if scheme.n_params != nu:
        raise ValueError("scheme parameter count must match m_j")

    entries: dict[tuple[int, ...], KernelEntry] = {}
    ranges = [range(m + m_max + 1) for m in m_j]
    for l in iter_product(*ranges):
        if sum(_positive_part([a - b for a, b in zip(l, m_j)])) > m_max:
            continue
        source = _positive_part([a - b for a, b in zip(l, m_j)])
        atom = get_atom(source)
        scaled_atoms = []
        p_caps = [max(m_j[mu] + 1 - l[mu], 0) for mu in range(nu)]
        for p in iter_product(*[range(2)] * nu):
            if any(l[mu] - p[mu] < 0 or p[mu] > p_caps[mu] for mu in range(nu)):
                continue
            delta = tuple(v[mu] * 2.0 ** (-p[mu] - m_j[mu]) for mu in range(nu))
            sign = -1.0 if sum(p) % 2 else 1.0
            scaled_atoms.append(ScaledAtom(sign, atom, delta))
        if scaled_atoms:
            entries[l] = KernelEntry(scheme, scaled_atoms)
    radius = max(
        max(abs(lo), abs(hi)) for e in entries.values() for lo, hi in e.support_box()
    )
    return DyadicKernelSeq(scheme, radius, entries)


# -- kernel sequence files ---------------------------------------------


def save_kernel_sequence(seq: DyadicKernelSeq, path) -> None:
    """Plain-text kernel file; floats use shortest round-trip printing, so
    reload is bit-exact."""
    lines = ["[kernel]"]
    lines.append(f"N = {seq.scheme.n_t}")
    lines.append(f"nu = {seq.scheme.n_params}")
    rows = " ; ".join(" ".join(str(v) for v in row) for row in seq.scheme.rows)
    lines.append(f"e = {rows}")
    lines.append(f"a = {seq.support_radius!r}")
    for k in seq.indices():
        lines.append(f"[entry {','.join(str(v) for v in k)}]")
        for sa in seq.entries[k].atoms:
            delta = " ".join(repr(d) for d in sa.delta)
            axes = " | ".join(
                ";".join(f"{c!r},{x!r},{r!r}" for c, x, r in factor.atoms)
                for factor in sa.atom.factors
            )
            lines.append(f"atom {sa.coef!r} @ {delta} : {axes}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER_KEYS = ("N", "nu", "e", "a")


def load_kernel_sequence(path) -> DyadicKernelSeq:
    """Read a kernel file written by ``save_kernel_sequence``.

    Each distinct axes text (after ``:``) is parsed once per file, and the
    atom lines that repeat it share one ``TensorBump``; each distinct delta
    text is parsed once.  A malformed file raises ValueError, naming the
    file line where it can: a header line that is not ``key = value`` with
    a known key, a repeated key or ``[entry k]``, an index or an atom line
    of the wrong arity, a number that is not finite, a support radius
    ``a <= 0``.
    """
    with open(path) as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != "[kernel]":
        raise ValueError("kernel file must start with a [kernel] header")
    header: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    pos = 1
    while pos < len(lines) and not lines[pos][1].startswith("[entry"):
        n, line = lines[pos]
        key, eq, value = (part.strip() for part in line.partition("="))
        with _at_line(n):
            if not eq or key not in _HEADER_KEYS:
                raise ValueError(f"expected one of {', '.join(_HEADER_KEYS)} = <value>, got {line!r}")
            if key in header:
                raise ValueError(f"repeated header key {key!r} (first on line {header[key][0]})")
        header[key] = (n, value)
        pos += 1
    missing = set(_HEADER_KEYS) - set(header)
    if missing:
        raise ValueError(f"kernel header is missing keys: {sorted(missing)}")
    with _at_line(header["e"][0]):
        scheme = ExponentScheme.from_rows([row.split() for row in header["e"][1].split(";")])
    for key, size in (("N", scheme.n_t), ("nu", scheme.n_params)):
        with _at_line(header[key][0]):
            if int(header[key][1]) != size:
                raise ValueError(f"kernel header {key} = {header[key][1]} disagrees with the scheme rows")
    with _at_line(header["a"][0]):
        radius = _finite(header["a"][1], "support radius a")
        if radius <= 0:
            raise ValueError(f"support radius a must be positive, got {header['a'][1]}")

    entries: dict[tuple[int, ...], list[ScaledAtom]] = {}
    first_line: dict[tuple[int, ...], int] = {}
    shapes: dict[str, TensorBump] = {}
    deltas: dict[str, tuple[float, ...]] = {}
    atoms: list[ScaledAtom] = []
    n = 0
    try:
        for n, line in lines[pos:]:
            if line.startswith("atom "):
                coef_part, at, rest = line[len("atom ") :].partition("@")
                delta_part, colon, axes_part = rest.partition(":")
                if not (at and colon):
                    raise ValueError("expected 'atom <coef> @ <delta...> : <axis atoms>'")
                if delta_part not in deltas:
                    delta = tuple(_finite(v, "atom delta") for v in delta_part.split())
                    if len(delta) != scheme.n_params:
                        raise ValueError(f"atom delta has {len(delta)} values, the scheme expects {scheme.n_params}")
                    deltas[delta_part] = delta
                if axes_part not in shapes:
                    shapes[axes_part] = _tensor_bump(axes_part, scheme.n_t)
                atoms.append(ScaledAtom(_finite(coef_part, "atom coefficient"), shapes[axes_part], deltas[delta_part]))
            elif line.startswith("[entry"):
                k = _entry_index(line, scheme.n_params)
                if k in entries:
                    raise ValueError(f"repeated [entry {','.join(map(str, k))}] (first on line {first_line[k]})")
                atoms = entries[k] = []
                first_line[k] = n
            else:
                raise ValueError(f"unrecognized kernel file line: {line!r}")
    except ValueError as exc:
        raise ValueError(f"kernel file line {n}: {exc}") from None
    return DyadicKernelSeq(
        scheme, radius, {k: KernelEntry(scheme, entry_atoms) for k, entry_atoms in entries.items()}
    )


@contextmanager
def _at_line(n: int):
    """Prefix a ValueError raised in the block with the kernel file line."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"kernel file line {n}: {exc}") from None


def _entry_index(line: str, nu: int) -> tuple[int, ...]:
    if not line.endswith("]"):
        shape = ",".join(f"k{mu}" for mu in range(1, nu + 1))
        raise ValueError(f"expected '[entry {shape}]', got {line!r}")
    try:
        k = tuple(int(v) for v in line[len("[entry") : -1].split(","))
    except ValueError:
        k = ()
    if len(k) != nu or any(v < 0 for v in k):
        raise ValueError(f"dyadic index must have {nu} nonnegative integer components, got {line!r}")
    return k


def _tensor_bump(text: str, n_axes: int) -> TensorBump:
    """The axes text 'c,x,r;... | c,x,r;...' as a tensor bump with n_axes factors."""
    axes = text.split("|")
    if len(axes) != n_axes:
        raise ValueError(f"atom has {len(axes)} axes, the scheme expects {n_axes}")
    factors = []
    for axis in axes:
        triples = []
        for triple in axis.split(";"):
            values = triple.split(",")
            if len(values) != 3:
                raise ValueError(f"atom triple needs 3 values c,x,r, got {triple.strip()!r}")
            triples.append(tuple(_finite(v, "atom triple") for v in values))
        factors.append(BumpCombination(tuple(triples)))
    return TensorBump(tuple(factors))


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {text.strip()!r}")
    return value
