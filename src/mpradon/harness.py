"""Discretized translation-invariant Radon operators on a 1-D grid.

The operators under study have the form

    T f(x) = sum_k  int f(x - p(s, t)) bump^{(delta_k)}(s, t) ds dt.

Every term is evaluated in normalized coordinates: substituting
u = delta_k (s, t) turns the term into  int f(x - p(delta_k^{-1} u)) bump(u) du
with one fixed quadrature rule shared by all terms, so a change of variables
that leaves p(delta_k^{-1} u) literally unchanged (the x - st case with
delta_k = (2^k, 2^-k)) produces bit-identical terms.  Terms with identical
taps are grouped and applied once, which realizes the (M+1)-fold exactness
of that case in floating point.

Grid functions are nodal values with linear interpolation and zero
extension; since p does not depend on x, interpolation at x - d is a
fractional index shift, so one application of T is a short list of
weighted integer shifts (a banded convolution) with a fixed summation
order, applied by real FFTs of the smallest 5-smooth length that holds
the linear convolution, to one grid function or a block of them at once.
The operator norm is the largest singular value of this finite section
(not the sup of its symbol, which can sit percents higher when the band
is comparable to n).  It is found by Rayleigh-Ritz for T*T on a subspace
V, done on the images T V: the projected matrix is their Gram matrix, and
the residuals of the top two Ritz pairs take one application of the
adjoint per step.  The subspace starts from sine-windowed plane waves at
the peaks of the symbol |sum_m w_m e^{-i m theta}| of the combined taps,
which lie close to the top singular vectors of a banded Toeplitz section,
and grows by those residuals, each preconditioned by the circulant that
the symbol defines (a Davidson expansion): the residual's padded FFT is
divided by theta (1 + delta) - |symbol|^2, theta the top Ritz value of
T*T; a step that leaves that value still is followed by one that adds the
raw residuals, and a second still step ends the expansion.

A growth table builds its terms once, for its largest truncation M; each
row's operator is the sub-sum of that row's scales.  A row whose terms
share one tap profile is count x that profile's operator, so the profile's
norm is computed once per table and scaled: kitty's ratios are exactly
M + 1.  The other rows are computed in increasing M, each starting its
Rayleigh-Ritz from the previous row's top Ritz vectors, since row M's
operator is row M-1's plus the terms of one more scale.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from .bumps import TensorBump, moment_bump
from .dilations import check_truncations
from .quadrature import tensor_rule
from .symbolic.gamma import case_polynomial
from .symbolic.poly import Polynomial


# a norm holds 2 x 80 grid functions (basis and images), about 335 MB at this n
MAX_GRID_N = 2**18


@dataclass(frozen=True)
class Grid1D:
    xmin: float = -4.0
    xmax: float = 4.0
    n: int = 2048

    def __post_init__(self):
        # NaN or +-inf at either end, or an overflowing width, makes the width NaN or inf
        if not isfinite(self.xmax - self.xmin):
            raise ValueError(f"grid window [{self.xmin}, {self.xmax}] and its width must be finite")
        if self.n > MAX_GRID_N:
            raise ValueError(f"grid n = {self.n} is beyond the cap of {MAX_GRID_N} nodes")
        if self.n < 2 or self.xmax <= self.xmin:
            raise ValueError("grid needs n >= 2 and xmax > xmin")
        if self.h == 0.0:
            raise ValueError(f"grid window [{self.xmin}, {self.xmax}] is too narrow: its step h underflows to 0")

    @property
    def h(self) -> float:
        return (self.xmax - self.xmin) / (self.n - 1)


@dataclass(frozen=True)
class _TapGroup:
    """One distinct displacement profile: taps w on integer shifts [lo, lo+B)."""

    count: int
    lo: int
    taps: np.ndarray


def _profile_taps(c: np.ndarray, n: int, quad_values: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, taps) of one term whose displacements are c grid steps at the nodes.

    Linear interpolation splits each node's value between the shifts floor(c)
    and floor(c) + 1; one bincount adds the floor shares, then the ceiling
    shares, each in node order.  c is overwritten.
    """
    floor = np.floor(c)
    lo, hi = (floor.min(), floor.max()) if floor.size else (np.nan, np.nan)
    # shifts beyond +-n never touch the grid (zero extension), so the
    # corresponding quadrature nodes are dropped exactly; deciding on the
    # floats keeps displacements beyond the int64 range (or NaN) out of the cast
    if not (lo >= -n and hi <= n - 1):
        keep = (floor >= -n) & (floor <= n - 1)
        c, floor, quad_values = c[keep], floor[keep], quad_values[keep]
        if not floor.size:
            return 0, np.zeros(1)
        lo, hi = floor.min(), floor.max()
    m = floor.size
    # bins: the offsets floor - lo, then the same plus one (exact in floats, |floor| <= n)
    bins = np.empty(2 * m, dtype=np.int64)
    np.subtract(floor, lo, out=bins[:m], casting="unsafe")
    np.add(bins[:m], 1, out=bins[m:])
    # weights: values (1 - lam), then values lam, with lam = c - floor
    shares = np.empty(2 * m)
    lam = np.subtract(c, floor, out=c)
    np.subtract(1.0, lam, out=shares[:m])
    np.multiply(quad_values, lam, out=shares[m:])
    shares[:m] *= quad_values
    return int(lo), np.bincount(bins, weights=shares)


def smooth_fft_length(m: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= m, a fast FFT length."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


class DiscretizedOperator:
    """A grouped banded realization of the dyadic-term sum.

    Application is linear convolution with the combined tap filter (computed
    via real FFT of a 5-smooth length with enough zero padding to reproduce
    zero extension exactly), then an integer re-offset; all reductions have
    a fixed order, so results are reproducible bit-for-bit.  ``apply`` and
    ``apply_adjoint`` take one grid function of shape (n,) or a block of
    shape (rows, n), transformed row by row in one call.

    ``term_groups`` gives, for each term of the sum in the order
    ``from_terms`` received them, the index of its group.
    """

    def __init__(self, grid: Grid1D, groups: Sequence[_TapGroup], term_groups: Sequence[int] = ()):
        self.grid = grid
        self.groups = tuple(groups)
        self.term_groups = tuple(term_groups)
        if self.groups:
            lo = min(g.lo for g in self.groups)
            hi = max(g.lo + g.taps.size for g in self.groups)
            combined = np.zeros(hi - lo)
            for g in self.groups:
                combined[g.lo - lo : g.lo - lo + g.taps.size] += float(g.count) * g.taps
        else:
            lo, combined = 0, np.zeros(1)
        self._lo = lo
        self._taps = combined
        self._nfft = smooth_fft_length(grid.n + combined.size - 1)
        if len(self.groups) == 1:
            # exact path: apply the single profile, then scale by its multiplicity,
            # so a sum of identical terms is literally count * (one term's output)
            self._count, taps = self.groups[0].count, self.groups[0].taps
        else:
            self._count, taps = 1, combined
        self._spectrum = np.fft.rfft(taps, self._nfft)
        self._spectrum_rev = np.fft.rfft(taps[::-1], self._nfft)

    @property
    def band(self) -> int:
        """The number of combined taps."""
        return self._taps.size

    @property
    def fft_length(self) -> int:
        """The length of every FFT that applies the operator."""
        return self._nfft

    @classmethod
    def from_terms(
        cls,
        grid: Grid1D,
        displacement_profiles: Iterable[np.ndarray],
        quad_values: np.ndarray,
    ) -> "DiscretizedOperator":
        """Build from per-term displacement arrays and shared quadrature values.

        quad_values holds (quadrature weight * atom value) per node; each
        term's profile holds p(delta_k^{-1} u) at the same nodes.  Terms with
        bit-identical taps (offset and weights) collapse into one group with
        a multiplicity, which keeps sum-of-equal-terms operators exactly
        proportional to their single-term version.  Groups follow the first
        appearance of their taps; only the taps of each group are kept.
        """
        index: dict[tuple[int, bytes], int] = {}
        counts: list[int] = []
        spans: list[tuple[int, np.ndarray]] = []
        term_groups = []
        for profile in displacement_profiles:
            # a displacement that overflows to inf grid steps lies off the grid and is dropped
            with np.errstate(over="ignore"):
                steps = np.asarray(profile, dtype=float) / grid.h
            lo, taps = _profile_taps(steps, grid.n, quad_values)
            j = index.setdefault((lo, taps.tobytes()), len(index))
            if j == len(spans):
                spans.append((lo, taps))
                counts.append(0)
            counts[j] += 1
            term_groups.append(j)
        groups = [_TapGroup(count, lo, taps) for count, (lo, taps) in zip(counts, spans)]
        return cls(grid, groups, term_groups)

    def restricted(self, terms: Iterable[int]) -> "DiscretizedOperator":
        """The sum of the given terms alone, grouped as ``from_terms`` groups them.

        Groups follow the first appearance of their taps among ``terms``
        and share this operator's taps, so the result is bit-identical to
        ``from_terms`` on those terms' profiles in that order.
        """
        counts: dict[int, int] = {}
        for t in terms:
            j = self.term_groups[t]
            counts[j] = counts.get(j, 0) + 1
        groups = [_TapGroup(c, self.groups[j].lo, self.groups[j].taps) for j, c in counts.items()]
        return DiscretizedOperator(self.grid, groups)

    def _convolve(self, spectrum: np.ndarray, f: np.ndarray, lo: int) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        n = f.shape[-1]
        band = self._taps.size
        full = np.fft.irfft(np.fft.rfft(f, self._nfft) * spectrum, self._nfft)[..., : n + band - 1]
        out = np.zeros(f.shape)
        start = max(0, lo)
        stop = min(n, lo + n + band - 1)
        if start < stop:
            out[..., start:stop] = full[..., start - lo : stop - lo]
        return float(self._count) * out if self._count != 1 else out

    def apply(self, f: np.ndarray) -> np.ndarray:
        """T f at the grid nodes: out[i] = sum_g count_g sum_m w_m f[i - m], row by row."""
        return self._convolve(self._spectrum, f, self._lo)

    def apply_adjoint(self, f: np.ndarray) -> np.ndarray:
        """The transpose: reversed taps on the mirrored shift range."""
        return self._convolve(self._spectrum_rev, f, -(self._lo + self._taps.size - 1))

    def as_matrix(self) -> np.ndarray:
        """Dense matrix; for small-grid oracle checks only."""
        return self.apply(np.eye(self.grid.n)).T


@dataclass(frozen=True)
class NormResult:
    value: float
    iterations: int
    converged: bool
    # the top Ritz vectors (rows, orthonormal), a start for a nearby operator's norm
    vectors: np.ndarray | None = field(default=None, compare=False, repr=False)


NORM_METHOD = (
    "rayleigh-ritz(previous-row-ritz-vectors+windowed-waves@symbol-peaks"
    "+symbol-preconditioned-residuals)"
)
_PEAK_FRACTION = 0.9  # local maxima of |symbol| this close to the sup seed waves too
_MAX_PEAKS = 4
_TOP_PEAK_MODES = 2  # window modes l = 1..2 at the highest peak, l = 1 elsewhere
_WARM_VECTORS = 2 * _TOP_PEAK_MODES  # the +- pair of each window mode
_SHIFT_MARGIN = 1e-2  # delta: the preconditioner's shift is theta (1 + delta)
_DENOMINATOR_FLOOR = 1e-3  # epsilon: |d| >= epsilon max |w^|^2 / scale^2


def _symbol_start_block(op: DiscretizedOperator) -> np.ndarray:
    """Windowed plane waves at the peaks of the symbol |sum_m w_m e^{-i m theta}|.

    Near a peak theta* of the symbol, the top singular vectors of a banded
    Toeplitz section look like sin(pi l (j+1)/(n+1)) e^{+-i theta* j} for
    small l; the cos and sin waves span both signs of the frequency.  The
    highest peak gets l = 1..2; every other local maximum within 10% of it
    gets l = 1, because at finite n a flatter, slightly lower peak can win.
    """
    nfft = 4096
    while nfft < 16 * op._taps.size:
        nfft *= 2
    mag = np.abs(np.fft.rfft(op._taps, nfft))
    left = np.concatenate(([-np.inf], mag[:-1]))
    right = np.concatenate((mag[1:], [-np.inf]))
    peaks = np.flatnonzero((mag >= left) & (mag >= right) & (mag >= _PEAK_FRACTION * mag.max()))
    peaks = peaks[np.argsort(-mag[peaks], kind="stable")][:_MAX_PEAKS]
    n = op.grid.n
    j = np.arange(n)
    windows = [np.sin(np.pi * mode * (j + 1) / (n + 1)) for mode in range(1, _TOP_PEAK_MODES + 1)]
    waves = []
    for rank, k in enumerate(peaks):
        theta = 2.0 * np.pi * int(k) / nfft
        cos, sin = np.cos(theta * j), np.sin(theta * j)
        for window in windows[: _TOP_PEAK_MODES if rank == 0 else 1]:
            waves += [window * cos, window * sin]
    return np.stack(waves)


def _orthonormal_rows(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The rows of block made orthonormal to basis and to each other, in place.

    Block classical Gram-Schmidt: a pass takes the block's components along
    basis out with two matrix products, then orthogonalizes each row, twice,
    against the rows kept before it and normalizes it.  A row is dropped as
    numerically dependent when it keeps at most 1e-10 of its norm at the
    start of the pass.  A row that keeps less than half its norm can keep a
    rounding component along basis that is no longer small beside what is
    left, so then a second pass runs (the test of Daniel, Gragg, Kaufman and
    Stewart); against an empty basis one pass is enough.  The one r x n
    temporary is the block's component along basis.
    """
    for _ in range(2):
        sizes = np.linalg.norm(block, axis=1)
        block -= (block @ basis.T) @ basis
        kept, retained = 0, 1.0
        for x, size in zip(block, sizes):
            if kept:
                for _ in range(2):
                    x -= block[:kept].T @ (block[:kept] @ x)
            norm = float(np.linalg.norm(x))
            if norm > 1e-10 * size:
                block[kept] = x / norm
                kept += 1
                retained = min(retained, norm / size)
        block = block[:kept]
        if retained >= 0.5 or not basis.shape[0]:
            break
    return block


def operator_norm(
    op: DiscretizedOperator,
    max_iters: int = 80,
    tol: float = 1e-8,
    start: np.ndarray | None = None,
) -> NormResult:
    """Largest singular value by Rayleigh-Ritz for T*T on a growing subspace.

    The subspace V (orthonormal rows) keeps its images T V / scale, one
    application of T per basis vector; the projected matrix of T*T /
    scale^2 is their Gram matrix, whose top eigenvalue theta is the squared
    top singular value of T V / scale.  The residuals r = T*T x / scale^2
    - theta x of the top two Ritz pairs (theta, x) take one application of
    the adjoint to a two-row block per step: T* applied to the images
    combined with x's coefficients, minus theta x.

    The subspace starts from the rows of ``start`` (typically the ``vectors``
    of a nearby operator's result), then ``_symbol_start_block``, and grows
    by those two residuals (block Davidson).  Real taps have a symbol
    peaking at +-theta*, so the top singular values of the section come in
    near-degenerate pairs; with only the top residual the top Ritz value
    can settle on the lower one of a pair and look converged.

    Each residual is preconditioned before it is added, as in Toeplitz
    solvers with a circulant preconditioner: M^-1 r is the operator's own
    padded FFT of r divided by d = theta (1 + delta) - |w^|^2 / scale^2,
    where theta is the top Ritz value and w^ the spectrum of the combined
    taps, so M approximates theta (1 + delta) - T*T / scale^2 (delta =
    ``_SHIFT_MARGIN``).  The section's top eigenvalue sits below the
    symbol's sup, so d changes sign near the peak: |d| is floored at
    epsilon max |w^|^2 / scale^2 (epsilon = ``_DENOMINATOR_FLOOR``), its
    sign kept.

    Converged means the top Ritz value moved by at most ``tol`` relative in
    each of the last two steps, or the subspace became invariant; a step
    that ends on the first test computes no residuals.  A step that leaves
    the value still is followed by one that adds the raw residuals:
    preconditioned corrections can fall back into the subspace and stall
    the value short of the top, while the raw residual of a Ritz pair that
    is not an eigenpair is a new direction.

    ``iterations`` counts the basis vectors, that is the applications of T,
    up to min(max_iters, n); the vectors added in one step (the start
    block, then two residuals) go through T as one block, and their images'
    inner products with the earlier images are one matrix product.  The
    value never exceeds the largest singular value of the finite section
    (up to rounding): it is a Rayleigh quotient.  The result carries the
    top ``_WARM_VECTORS`` Ritz vectors.
    """
    n = op.grid.n
    # ||T|| <= sum |w_m|; working with T / scale keeps T*T clear of underflow
    scale = float(np.abs(op._taps).sum())
    if scale == 0.0:
        return NormResult(0.0, 0, True, np.zeros((0, n)))
    dim = min(max_iters, n)
    nfft = op.fft_length
    # |w^|^2 / scale^2 at the rfft frequencies: the symbol of T*T / scale^2
    power = np.abs(op._spectrum * (op._count / scale)) ** 2
    floor = _DENOMINATOR_FLOOR * float(power.max())
    # np.empty leaves the rows unpaged until the subspace grows into them
    basis = np.empty((dim, n))
    images = np.empty((dim, n))  # T / scale applied to each basis row
    projected = np.zeros((dim, dim))  # the Gram matrix of the images
    waves = _symbol_start_block(op)
    fresh = _orthonormal_rows(waves if start is None else np.concatenate((start, waves)), basis[:0])
    k = 0
    ritz_prev = None
    stood_still = False  # the previous step moved the top Ritz value by at most tol
    while True:
        block = fresh[: dim - k]
        r = block.shape[0]
        basis[k : k + r] = block
        images[k : k + r] = op.apply(block) / scale
        products = images[: k + r] @ images[k : k + r].T
        projected[: k + r, k : k + r] = products
        projected[k : k + r, : k + r] = products.T
        k += r
        # the lower triangle pairs each earlier image with the later one
        evals, evecs = np.linalg.eigh(projected[:k, :k], UPLO="L")
        ritz = max(float(evals[-1]), 0.0)
        top = evecs[:, :-3:-1]
        value = scale * float(np.sqrt(ritz))
        still = ritz_prev is not None and abs(ritz - ritz_prev) <= tol * ritz
        if (still and stood_still) or k == n:
            converged = True
            break
        # T*T x / scale^2 - theta x for the top two Ritz pairs (theta, x)
        residuals = op.apply_adjoint(top.T @ images[:k]) / scale - evals[:-3:-1, None] * (top.T @ basis[:k])
        converged = float(np.linalg.norm(residuals[0])) <= 1e-14 * ritz  # an invariant subspace
        if converged or k == dim:
            break
        ritz_prev, stood_still = ritz, still
        if not still:
            # M^-1 r, the symbol preconditioner of the docstring
            d = ritz * (1.0 + _SHIFT_MARGIN) - power
            d = np.copysign(np.maximum(np.abs(d), floor), d)
            residuals = np.fft.irfft(np.fft.rfft(residuals, nfft) / d, nfft)[:, :n]
        fresh = _orthonormal_rows(residuals, basis[:k])
        if not len(fresh):
            converged = True
            break
    vectors = evecs[:, : -_WARM_VECTORS - 1 : -1].T @ basis[:k]
    return NormResult(value, k, converged, vectors)


# -- experiment construction ---------------------------------------------


def default_experiment_atom(a: float = 0.5) -> TensorBump:
    """phi (x) phi with int phi = 0 and int s phi ds = 1, supported in (0, a)."""
    phi = moment_bump(a, 1).bump
    return TensorBump((phi, phi))


def build_operator(
    p: Polynomial,
    scales: Sequence[tuple[float, float]],
    grid: Grid1D,
    atom: TensorBump | None = None,
    quad_order: int = 24,
) -> DiscretizedOperator:
    """T f(x) = sum_k int f(x - p(delta_k^{-1} u)) atom(u) du on the grid."""
    atom = atom or default_experiment_atom()
    if atom.dimension != 2 or p.nvars != 2:
        raise ValueError("experiment operators are built over two t-variables")
    axes = [f.quadrature_rule(quad_order) for f in atom.factors]
    # atom.quadrature_rule(quad_order): nodes (x1[i], x2[j]) at row i * x2.size + j
    points, weights = tensor_rule(axes)
    quad_values = weights * atom(points)
    x1, x2 = (x for x, _ in axes)
    terms = p.float_terms()

    def profiles():
        # one term's profile at a time: only its taps outlive it; each monomial
        # is coef * u1^e1 * u2^e2 per node, an outer product over the two axes
        for d1, d2 in scales:
            u1, u2 = x1 / d1, x2 / d2
            profile = np.zeros((x1.size, x2.size))
            for coef, (e1, e2) in terms:
                profile += np.multiply.outer(coef * u1**e1, u2**e2)
            yield profile.reshape(-1)

    return DiscretizedOperator.from_terms(grid, profiles(), quad_values)


def dyadic_scales(m: int) -> list[tuple[float, float]]:
    """delta_k = (2^k, 2^-k) for k = 0..m (the direction n = (1, -1)).

    This is the display family of the unbounded examples; it is not inside
    the kernel class (the second component shrinks), which is exactly why
    its operator sums can grow.
    """
    return [(2.0**k, 2.0**-k) for k in range(m + 1)]


def square_scales(m: int) -> list[tuple[float, float]]:
    """delta_j = (2^j1, 2^j2) over the full square 0 <= j1, j2 <= m.

    This family stays inside the kernel class (indices in N^2), which is the
    setting of the boundedness claim for the x - s - st flow.
    """
    return [(2.0**j1, 2.0**j2) for j1 in range(m + 1) for j2 in range(m + 1)]


@dataclass(frozen=True)
class GrowthRow:
    M: int  # the truncation
    L: int | None  # the know case's scale parameter
    norm: float
    ratio: float
    iterations: int
    converged: bool
    band: int  # combined taps of the row's operator
    fft_length: int


@dataclass(frozen=True)
class GrowthTable:
    case: str
    grid: Grid1D
    quad_order: int
    rows: tuple[GrowthRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        # the comment line is written as it is: csv.writer would quote it for its commas
        buf.write(
            f"# case={self.case} grid_n={self.grid.n} window=[{self.grid.xmin},{self.grid.xmax}]"
            f" quad_order={self.quad_order} norm_method={NORM_METHOD}\r\n"
        )
        writer = csv.writer(buf)
        writer.writerow(["M", "L", "norm", "ratio", "iterations", "converged"])
        for r in self.rows:
            level = "" if r.L is None else r.L
            writer.writerow([r.M, level, repr(r.norm), repr(r.ratio), r.iterations, str(r.converged).lower()])
        return buf.getvalue()

    def to_json(self) -> str:
        # every field name is its JSON key; Grid1D and GrowthRow are written as their fields
        return json.dumps({**vars(self), "norm_method": NORM_METHOD}, sort_keys=True, default=vars)

    def ratios(self) -> list[float]:
        return [r.ratio for r in self.rows]


def growth_experiment(
    case: str,
    m_list: Sequence[int],
    level: int | None = None,
    grid: Grid1D | None = None,
    atom: TensorBump | None = None,
    quad_order: int = 24,
    max_iters: int = 80,
) -> GrowthTable:
    """Operator norms and growth ratios (against M = 0) for the three model cases.

    Every scale family of a smaller M is part of the family of the largest
    M, so the terms are built once, for the largest M, and each row's
    operator is the sub-sum of its own scales (``DiscretizedOperator.
    restricted``), bit-identical to building it alone.  A row with a single
    tap profile is count x that profile's operator, so its norm is count x
    the profile's norm, computed once per table and reported with that
    norm's iterations and convergence; the kitty ratios are then exactly
    M + 1.  The rows are computed in increasing M (M = 0 included, and a
    zero M = 0 norm is an error before any other row is computed), and each
    other row's norm starts from the top Ritz vectors of the norm computed
    just before it, so a row may differ from that row computed alone by up
    to the stopping tolerance; the order, and so every value, depends only
    on the set of truncations.
    """
    if not m_list:
        raise ValueError("norm-growth needs at least one truncation M")
    check_truncations(m_list)
    grid = grid or Grid1D()
    atom = atom or default_experiment_atom()
    p = case_polynomial(case, level)
    scale_family = square_scales if case == "billy" else dyadic_scales
    family = scale_family(max(m_list))
    position = {scale: t for t, scale in enumerate(family)}
    terms = build_operator(p, family, grid, atom=atom, quad_order=quad_order)
    profile_norms: dict[tuple[int, bytes], NormResult] = {}
    rows: dict[int, GrowthRow] = {}
    warm = None  # the top Ritz vectors of the latest row, the next row's start
    for m in sorted({0, *m_list}):
        op = terms.restricted(position[scale] for scale in scale_family(m))
        if len(op.groups) != 1:
            res, count = operator_norm(op, max_iters=max_iters, start=warm), 1
        else:
            g = op.groups[0]
            key = (g.lo, g.taps.tobytes())
            if key not in profile_norms:
                single = DiscretizedOperator(grid, [_TapGroup(1, g.lo, g.taps)])
                profile_norms[key] = operator_norm(single, max_iters=max_iters)
            res, count = profile_norms[key], g.count
        warm = res.vectors
        if m == 0:
            base_norm = count * res.value
            if not base_norm:
                raise ValueError(
                    f"the M = 0 norm is 0 on the grid window [{grid.xmin}, {grid.xmax}]: no growth ratio is defined"
                )
        rows[m] = GrowthRow(
            m,
            level if case == "know" else None,
            count * res.value,
            # count x (profile / base) keeps kitty's ratios exact integers
            count * (res.value / base_norm),
            res.iterations,
            res.converged,
            op.band,
            op.fft_length,
        )
    return GrowthTable(case, grid, quad_order, tuple(rows[m] for m in m_list))
