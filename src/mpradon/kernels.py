"""Dyadic multi-parameter kernel sequences.

A kernel is represented only by its finite dyadic data: a map from the
index k in N^nu to an entry, each entry a finite signed sum of
scheme-dilated tensor bumps.  The represented distribution is

    K(t) = sum_k  entry_k^{(2^k)}(t),

where f^{(delta)}(t) = delta^{e_1+...+e_N} f(delta t).  On top of this the
module provides

  * ``verify_cancellation`` -- exact slice masses int entry_k dt^mu for
    every mu with k_mu != 0 (t^mu = coordinates with e_i^mu != 0), each
    sampled on a grid of the remaining coordinates;

  * ``sample_product_kernel_bounds`` -- for 2-parameter product schemes,
    the weighted sup |d^alpha K| |s|^{1+a1} |t|^{1+a2} over samples off the
    axes, the quantity whose finiteness characterizes product kernels;

  * ``regroup_to_dyadic`` -- rewrites sum_{k<=M} bump^{(tau 2^{k n})} in
    dyadic normal form sum_i entry_i^{(2^i)} with per-entry scale factors
    in [1, 2)^nu (exact identity of finite smooth sums);

  * ``telescope_decompose`` -- the alternating-sign telescoping that
    rewrites sum_k bump_k^{(2^k v)} for a general scale vector v bracketed
    by powers of two, preserving cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Mapping, Sequence

import numpy as np

from .bumps import TensorBump
from .dilations import ExponentScheme, dilation_factors
from .quadrature import tensor_grid


class UnsupportedKernel(ValueError):
    """Kernels outside the finite bump-data representation."""


def dirac_delta_sequence(*_args, **_kwargs):
    """The Dirac delta does lie in every kernel class, but its dyadic
    decomposition is an infinite telescoping family; no finite truncation is
    an element of this representation, so it is rejected outright."""
    raise UnsupportedKernel(
        "delta_0 admits no finite dyadic bump representation: every truncation "
        "of its telescoping decomposition misses the mass at scale 2^-inf"
    )


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
        for sa in self.atoms:
            if len(sa.delta) != scheme.n_params:
                raise ValueError("atom delta arity disagrees with the scheme")
            if sa.atom.dimension != scheme.n_t:
                raise ValueError("atom dimension disagrees with the scheme")
        # per atom: coordinate factors delta^{e_i} and their product (the jacobian)
        self.dilations: tuple[tuple[np.ndarray, float], ...] = tuple(
            (f, float(np.prod(f)))
            for f in (np.array(dilation_factors(sa.delta, scheme), dtype=float) for sa in self.atoms)
        )

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for sa, (factors, jac) in zip(self.atoms, self.dilations):
            out += sa.coef * jac * sa.atom(pts * factors)
        return out

    def derivative_values(self, points, orders: Sequence[int]) -> np.ndarray:
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

    def sup_norm_sampled(self, per_axis: int = 160) -> float:
        pts = tensor_grid([np.linspace(lo, hi, per_axis) for lo, hi in self.support_box()])
        return float(np.max(np.abs(self(pts)))) if pts.size else 0.0

    def cm_norm_sampled(self, m: int, per_axis: int = 160) -> float:
        """Sampled C^m norm: sup over derivatives of total order <= m.

        The kernel class asks for boundedness in every C^m; this artifact
        verifies m <= 2 by sampling and leaves higher m unchecked.
        """
        pts = tensor_grid([np.linspace(lo, hi, per_axis) for lo, hi in self.support_box()])
        if not pts.size:
            return 0.0
        worst = float(np.max(np.abs(self(pts))))
        for orders in iter_product(*[range(m + 1)] * self.scheme.n_t):
            if 0 < sum(orders) <= m:
                worst = max(worst, float(np.max(np.abs(self.derivative_values(pts, orders)))))
        return worst

    def c1_norm_sampled(self, per_axis: int = 160) -> float:
        return self.cm_norm_sampled(1, per_axis)


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

    def scaled(self, delta: Sequence[float]) -> "DyadicKernelSeq":
        return DyadicKernelSeq(
            self.scheme,
            self.support_radius,
            {k: e.scaled(delta) for k, e in self.entries.items()},
        )

    def __call__(self, points) -> np.ndarray:
        """The represented sum  sum_k entry_k^{(2^k)} at the given points."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for k in self.indices():
            out += self.entries[k].scaled([2.0**v for v in k])(pts)
        return out


@dataclass(frozen=True)
class SliceCheck:
    index: tuple[int, ...]
    mu: int
    max_abs: float


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
    def passed(self) -> bool:
        return not self.failing() and not self.support_violations

    def failing(self) -> list[SliceCheck]:
        """Slices above the tolerance, and those whose integral is not finite."""
        return [c for c in self.checks if not c.max_abs <= self.tolerance]


def verify_cancellation(
    seq: DyadicKernelSeq,
    tolerance: float = 1e-9,
    grid_per_axis: int = 9,
) -> CancellationReport:
    """Check int entry_k dt^mu == 0 (k_mu != 0) on a grid of the other variables.

    The slice integral of a dilated tensor atom factorizes into 1-D integrals
    over the inner coordinates times the atom's values at the outer ones.
    Each inner factor is a combination sum_j c_j psi_{x_j,r_j} of unit-mass
    atoms, so its integral after the dilation u -> f u is (sum_j c_j) / f in
    closed form: no quadrature, however far apart the atom scales sit.  Only
    the outer coordinates are sampled, at ``grid_per_axis`` points per axis
    of the entry's support box.  A slice whose integral is not finite fails.
    """
    checks: list[SliceCheck] = []
    violations: list[tuple[tuple[int, ...], float]] = []
    for k in seq.indices():
        entry = seq.entries[k]
        box = entry.support_box()
        radius = max(max(abs(lo), abs(hi)) for lo, hi in box)
        if radius > seq.support_radius + 1e-12:
            violations.append((k, radius))
        for mu in range(seq.scheme.n_params):
            if k[mu] == 0:
                continue
            inner = sorted(set(seq.scheme.slice_coordinates(mu)))
            outer = [i for i in range(seq.scheme.n_t) if i not in inner]
            # per atom: coefficient * jacobian * prod of inner 1-D masses
            weights = []
            for sa, (factors, jac) in zip(entry.atoms, entry.dilations):
                weight = sa.coef * jac
                for i in inner:
                    weight *= sa.atom.factors[i].moment_closed_form(0) / factors[i]
                weights.append(weight)
            if outer:
                outer_pts = tensor_grid([np.linspace(*box[i], grid_per_axis) for i in outer])
                acc = np.zeros(outer_pts.shape[0])
                for weight, sa, (factors, _) in zip(weights, entry.atoms, entry.dilations):
                    vals = np.full(outer_pts.shape[0], weight)
                    for col, i in enumerate(outer):
                        vals = vals * sa.atom.factors[i](factors[i] * outer_pts[:, col])
                    acc += vals
                worst = float(np.max(np.abs(acc)))
            else:
                worst = float(abs(sum(weights)))
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
    """
    if seq.scheme.n_t != 2 or seq.scheme.n_params != 2:
        raise ValueError("product-kernel bounds need the 2-parameter product scheme")
    if samples is None:
        mags = np.geomspace(1e-4, seq.support_radius, 24)
        quadrant = tensor_grid([mags, mags])
        samples = np.concatenate([quadrant * sign for sign in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    samples = np.asarray(samples, dtype=float)
    if np.any(samples == 0.0):
        raise ValueError("sample points must stay off the coordinate axes")
    out: list[ProductBoundEstimate] = []
    for alpha in alphas:
        a1, a2 = alpha
        weight = np.abs(samples[:, 0]) ** (1 + a1) * np.abs(samples[:, 1]) ** (1 + a2)
        # one pass over the entries in index order: each is evaluated once and
        # added to the sum of every truncation that keeps it
        accs = [np.zeros(samples.shape[0]) for _ in truncations]
        for k in seq.indices():
            keep = [acc for acc, m_cut in zip(accs, truncations) if sum(k) <= m_cut]
            if keep:
                vals = seq.entries[k].scaled([2.0**v for v in k]).derivative_values(samples, alpha)
                for acc in keep:
                    acc += vals
        out += [
            ProductBoundEstimate((a1, a2), m_cut, float(np.max(np.abs(acc) * weight)))
            for m_cut, acc in zip(truncations, accs)
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


def dyadic_source_sum(
    atom: TensorBump,
    tilde_tau: Sequence[float],
    direction: Sequence[float],
    m_max: int,
    scheme: ExponentScheme | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Direct evaluator of sum_{k<=M} atom^{(tau 2^{k n})} (the regroup oracle)."""
    scheme = scheme or ExponentScheme.product(atom.dimension)
    base = KernelEntry(scheme, [ScaledAtom(1.0, atom, tuple(1.0 for _ in tilde_tau))])

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for k in range(m_max + 1):
            delta = tuple(
                t * 2.0 ** (k * n) for t, n in zip(tilde_tau, direction)
            )
            out += base.scaled(delta)(pts)
        return out

    return evaluate


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


def telescope_source_sum(
    atoms: Mapping[tuple[int, ...], TensorBump] | Callable[[tuple[int, ...]], TensorBump],
    m_j: Sequence[int],
    scale_vector: Sequence[float],
    m_max: int,
    scheme: ExponentScheme | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Direct evaluator of the telescoped sum (the oracle side of the identity)."""
    m_j = tuple(int(x) for x in m_j)
    v = tuple(float(x) for x in scale_vector)
    nu = len(m_j)
    get_atom = atoms.__getitem__ if isinstance(atoms, Mapping) else atoms
    probe = get_atom(tuple(0 for _ in range(nu)))
    scheme = scheme or ExponentScheme.product(probe.dimension)

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for offset in iter_product(*[range(m_max + 1)] * nu):
            if sum(offset) > m_max:
                continue
            delta = tuple(2.0 ** offset[mu] * v[mu] for mu in range(nu))
            entry = KernelEntry(scheme, [ScaledAtom(1.0, get_atom(tuple(offset)), delta)])
            out += entry(pts)
        return out

    return evaluate


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


def load_kernel_sequence(path) -> DyadicKernelSeq:
    from .bumps import BumpCombination

    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "[kernel]":
        raise ValueError("kernel file must start with a [kernel] header")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("[entry"):
        key, _, value = lines[i].partition("=")
        header[key.strip()] = value.strip()
        i += 1
    missing = {"N", "nu", "e", "a"} - set(header)
    if missing:
        raise ValueError(f"kernel header is missing keys: {sorted(missing)}")
    scheme = ExponentScheme.from_rows(
        [row.split() for row in header["e"].split(";")]
    )
    if scheme.n_t != int(header["N"]) or scheme.n_params != int(header["nu"]):
        raise ValueError("kernel header N/nu disagree with the scheme rows")
    entries: dict[tuple[int, ...], KernelEntry] = {}
    current: tuple[int, ...] | None = None
    atoms: list[ScaledAtom] = []

    def flush():
        if current is not None:
            entries[current] = KernelEntry(scheme, atoms)

    while i < len(lines):
        line = lines[i]
        if line.startswith("[entry"):
            flush()
            current = tuple(int(v) for v in line[len("[entry") : -1].strip().split(","))
            atoms = []
        elif line.startswith("atom "):
            body = line[len("atom ") :]
            coef_part, _, rest = body.partition("@")
            delta_part, _, axes_part = rest.partition(":")
            factors = []
            for axis in axes_part.split("|"):
                triples = []
                for triple in axis.split(";"):
                    c, x, r = (_finite(v, "atom triple") for v in triple.split(","))
                    triples.append((c, x, r))
                factors.append(BumpCombination(tuple(triples)))
            atoms.append(
                ScaledAtom(
                    _finite(coef_part, "atom coefficient"),
                    TensorBump(tuple(factors)),
                    tuple(_finite(v, "atom delta") for v in delta_part.split()),
                )
            )
        else:
            raise ValueError(f"unrecognized kernel file line: {line!r}")
        i += 1
    flush()
    return DyadicKernelSeq(scheme, _finite(header["a"], "support radius a"), entries)


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"kernel file {what} must be finite, got {text.strip()!r}")
    return value
