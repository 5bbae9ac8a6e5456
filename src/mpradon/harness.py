"""Discretized translation-invariant Radon operators on a 1-D grid.

The operators under study have the form

    T f(x) = sum_k  int f(x - p(s, t)) bump^{(delta_k)}(s, t) ds dt.

Every term is evaluated in normalized coordinates: substituting
u = delta_k (s, t) turns the term into  int f(x - p(delta_k^{-1} u)) bump(u) du
with one fixed quadrature rule shared by all terms, so a change of variables
that leaves p(delta_k^{-1} u) literally unchanged (the x - st case with
delta_k = (2^k, 2^-k)) produces bit-identical terms.  Terms with identical
displacement profiles are grouped and applied once, which realizes the
(M+1)-fold exactness of that case in floating point.

Grid functions are nodal values with linear interpolation and zero
extension; since p does not depend on x, interpolation at x - d is a
fractional index shift, so one application of T is a short list of
weighted integer shifts (a banded convolution) with a fixed summation
order, applied by real FFTs of the smallest 5-smooth length that holds
the linear convolution, to one grid function or a block of them at once.
The operator norm is the largest singular value of this finite section
(not the sup of its symbol, which can sit percents higher when the band
is comparable to n).  It is found by Rayleigh-Ritz for T*T on a subspace
that starts from sine-windowed plane waves at the peaks of the symbol
|sum_m w_m e^{-i m theta}| of the combined taps, which lie close to the
top singular vectors of a banded Toeplitz section, and grows by the
residuals of the top two Ritz pairs.

A growth table builds its terms once, for its largest truncation M; each
row's operator is the sub-sum of that row's scales.  A row whose terms
share one profile is count x that profile's operator, so the profile's
norm is computed once per table and scaled: kitty's ratios are exactly
M + 1.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bumps import TensorBump, moment_bump
from .symbolic.poly import Polynomial


@dataclass(frozen=True)
class Grid1D:
    xmin: float = -4.0
    xmax: float = 4.0
    n: int = 2048

    def __post_init__(self):
        if self.n < 2 or self.xmax <= self.xmin:
            raise ValueError("grid needs n >= 2 and xmax > xmin")

    @property
    def h(self) -> float:
        return (self.xmax - self.xmin) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.n)


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
    shares, each in node order.
    """
    base = np.floor(c).astype(np.int64)
    lam = c - base
    # shifts beyond +-n never touch the grid (zero extension), so the
    # corresponding quadrature nodes are dropped exactly
    keep = (base >= -n) & (base <= n - 1)
    base, lam, values = base[keep], lam[keep], quad_values[keep]
    if base.size == 0:
        return 0, np.zeros(1)
    lo = int(base.min())
    offsets = base - lo
    return lo, np.bincount(
        np.concatenate((offsets, offsets + 1)),
        weights=np.concatenate((values * (1.0 - lam), values * lam)),
        minlength=int(base.max()) - lo + 2,
    )


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
        bit-identical profiles collapse into one group with a multiplicity,
        which keeps sum-of-equal-terms operators exactly proportional to
        their single-term version.  Groups follow the first appearance of
        their profile; only the taps of each group are kept.
        """
        index: dict[bytes, int] = {}
        counts: list[int] = []
        spans: list[tuple[int, np.ndarray]] = []
        term_groups = []
        for profile in displacement_profiles:
            profile = np.asarray(profile, dtype=float)
            j = index.setdefault(profile.tobytes(), len(index))
            if j == len(spans):
                spans.append(_profile_taps(profile / grid.h, grid.n, quad_values))
                counts.append(0)
            counts[j] += 1
            term_groups.append(j)
        groups = [_TapGroup(count, lo, taps) for count, (lo, taps) in zip(counts, spans)]
        return cls(grid, groups, term_groups)

    def restricted(self, terms: Iterable[int]) -> "DiscretizedOperator":
        """The sum of the given terms alone, grouped as ``from_terms`` groups them.

        Groups follow the first appearance of their profile among ``terms``
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


NORM_METHOD = "rayleigh-ritz(windowed-waves@symbol-peaks)"
_PEAK_FRACTION = 0.9  # local maxima of |symbol| this close to the sup seed waves too
_MAX_PEAKS = 4
_TOP_PEAK_MODES = 4  # window modes l = 1..4 at the highest peak, l = 1 elsewhere


def _symbol_start_block(op: DiscretizedOperator) -> np.ndarray:
    """Windowed plane waves at the peaks of the symbol |sum_m w_m e^{-i m theta}|.

    Near a peak theta* of the symbol, the top singular vectors of a banded
    Toeplitz section look like sin(pi l (j+1)/(n+1)) e^{+-i theta* j} for
    small l; the cos and sin waves span both signs of the frequency.  The
    highest peak gets l = 1..4; every other local maximum within 10% of it
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
    waves = []
    for rank, k in enumerate(peaks):
        theta = 2.0 * np.pi * int(k) / nfft
        for mode in range(1, (_TOP_PEAK_MODES if rank == 0 else 1) + 1):
            window = np.sin(np.pi * mode * (j + 1) / (n + 1))
            waves += [window * np.cos(theta * j), window * np.sin(theta * j)]
    return np.stack(waves)


def _orthonormal_rows(rows: np.ndarray, basis: np.ndarray) -> list[np.ndarray]:
    """Gram-Schmidt (twice) of each row against basis and the rows kept so far;
    rows that are numerically dependent are dropped."""
    kept: list[np.ndarray] = []
    for x in rows:
        size = float(np.linalg.norm(x))
        for _ in range(2):
            x = x - basis.T @ (basis @ x)
            for q in kept:
                x = x - (q @ x) * q
        norm = float(np.linalg.norm(x))
        if norm > 1e-10 * size:
            kept.append(x / norm)
    return kept


def operator_norm(
    op: DiscretizedOperator,
    max_iters: int = 80,
    tol: float = 1e-8,
) -> NormResult:
    """Largest singular value by Rayleigh-Ritz for T*T on a growing subspace.

    The subspace starts from ``_symbol_start_block`` and grows by the
    residuals of the top two Ritz pairs (block Davidson without a
    preconditioner).  Real taps have a symbol peaking at +-theta*, so the
    top singular values of the section come in near-degenerate pairs; with
    only the top residual the top Ritz value can settle on the lower one of
    a pair and look converged.  Every vector added costs one application of
    T*T, counted as one iteration, up to min(max_iters, n); the vectors
    added in one step (the start block, then two residuals) go through T*T
    as one block, and their inner products with the basis are one matrix
    product.  Converged means the top Ritz value moved by at most ``tol``
    relative in the last step, or the subspace became invariant.  The value never exceeds the largest
    singular value of the finite section (up to rounding): it is a Rayleigh
    quotient.
    """
    # ||T|| <= sum |w_m|; working with T / scale keeps T*T clear of underflow
    scale = float(np.abs(op._taps).sum())
    if scale == 0.0:
        return NormResult(0.0, 0, True)
    n = op.grid.n
    dim = min(max_iters, n)
    # np.empty leaves the rows unpaged until the subspace grows into them
    basis = np.empty((dim, n))
    images = np.empty((dim, n))  # T*T applied to each basis row
    projected = np.zeros((dim, dim))
    fresh = _orthonormal_rows(_symbol_start_block(op), basis[:0])
    k = 0
    ritz_prev = None
    while True:
        block = np.array(fresh[: dim - k])
        r = block.shape[0]
        basis[k : k + r] = block
        images[k : k + r] = op.apply_adjoint(op.apply(block) / scale) / scale
        products = basis[: k + r] @ images[k : k + r].T
        projected[: k + r, k : k + r] = products
        projected[k : k + r, : k + r] = products.T
        k += r
        # the lower triangle pairs each earlier basis row with the later image
        evals, evecs = np.linalg.eigh(projected[:k, :k], UPLO="L")
        ritz = max(float(evals[-1]), 0.0)
        top = evecs[:, :-3:-1]
        residuals = top.T @ images[:k] - evals[:-3:-1, None] * (top.T @ basis[:k])
        value = scale * float(np.sqrt(ritz))
        invariant = float(np.linalg.norm(residuals[0])) <= 1e-14 * ritz or k == n
        if invariant or (ritz_prev is not None and abs(ritz - ritz_prev) <= tol * ritz):
            return NormResult(value, k, True)
        if k == dim:
            return NormResult(value, k, False)
        ritz_prev = ritz
        fresh = _orthonormal_rows(residuals, basis[:k])
        if not fresh:
            return NormResult(value, k, True)


# -- experiment construction ---------------------------------------------


def default_experiment_atom() -> TensorBump:
    """phi (x) phi with int phi = 0 and int s phi ds = 1, supported in (0, 1/2)."""
    phi = moment_bump(0.5, 1).bump
    return TensorBump((phi, phi))


CASES = ("kitty", "know", "billy")


def case_polynomial(case: str, level: int | None = None) -> Polynomial:
    """The flow polynomial p with gamma_t(x) = x - p(s, t) for each case."""
    variables = ("s", "t")
    if case == "kitty":
        return Polynomial.parse("s*t", variables)
    if case == "know":
        if level is None:
            raise ValueError("the 'know' case needs the scale parameter L")
        if level < 0:
            raise ValueError(f"the scale parameter L must be >= 0, got {level}")
        eps = Fraction(1, 2**level)
        return Polynomial(
            variables, {(3, 0): eps, (0, 3): eps, (1, 1): Fraction(1)}
        )
    if case == "billy":
        return Polynomial.parse("s + s*t", variables)
    raise ValueError(f"unknown case {case!r}; expected one of {CASES}")


def build_operator(
    p: Polynomial,
    scales: Sequence[tuple[float, float]],
    grid: Grid1D,
    atom: TensorBump | None = None,
    quad_order: int = 24,
    quad_panels: int = 2,
) -> DiscretizedOperator:
    """T f(x) = sum_k int f(x - p(delta_k^{-1} u)) atom(u) du on the grid."""
    atom = atom or default_experiment_atom()
    if atom.dimension != 2 or p.nvars != 2:
        raise ValueError("experiment operators are built over two t-variables")
    points, weights = atom.quadrature_rule(quad_order, quad_panels)
    quad_values = weights * atom(points)
    terms = [float(c) for c, _ in p.float_terms()]
    exps = [e for _, e in p.float_terms()]

    def profiles():
        # one term's profile at a time: only its taps outlive it
        for d1, d2 in scales:
            u1 = points[:, 0] / d1
            u2 = points[:, 1] / d2
            profile = np.zeros(points.shape[0])
            for coef, (e1, e2) in zip(terms, exps):
                profile += coef * u1**e1 * u2**e2
            yield profile

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
    truncation: int
    level: int | None
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
        writer = csv.writer(buf)
        writer.writerow(
            [
                f"# case={self.case} grid_n={self.grid.n} window=[{self.grid.xmin},{self.grid.xmax}]"
                f" quad_order={self.quad_order} norm_method={NORM_METHOD}"
            ]
        )
        writer.writerow(["M", "L", "norm", "ratio"])
        for r in self.rows:
            writer.writerow([r.truncation, "" if r.level is None else r.level, repr(r.norm), repr(r.ratio)])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "grid": {"xmin": self.grid.xmin, "xmax": self.grid.xmax, "n": self.grid.n},
            "quad_order": self.quad_order,
            "norm_method": NORM_METHOD,
            "rows": [
                {
                    "M": r.truncation,
                    "L": r.level,
                    "norm": r.norm,
                    "ratio": r.ratio,
                    "iterations": r.iterations,
                    "converged": r.converged,
                    "band": r.band,
                    "fft_length": r.fft_length,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def ratios(self) -> list[float]:
        return [r.ratio for r in self.rows]


def growth_experiment(
    case: str,
    m_list: Sequence[int],
    level: int | None = None,
    grid: Grid1D | None = None,
    atom: TensorBump | None = None,
    quad_order: int = 24,
    quad_panels: int = 2,
    max_iters: int = 80,
    tol: float = 1e-8,
) -> GrowthTable:
    """Operator norms and growth ratios (against M = 0) for the three model cases.

    Every scale family of a smaller M is part of the family of the largest
    M, so the terms are built once, for the largest M, and each row's
    operator is the sub-sum of its own scales (``DiscretizedOperator.
    restricted``), bit-identical to building it alone.  A row with a single
    profile is count x that profile's operator, so its norm is count x the
    profile's norm, computed once per table and reported with that norm's
    iterations and convergence; the kitty ratios are then exactly M + 1.
    """
    if not m_list:
        raise ValueError("norm-growth needs at least one truncation M")
    if min(m_list) < 0:
        raise ValueError(f"truncations M must be >= 0, got {min(m_list)}")
    grid = grid or Grid1D()
    atom = atom or default_experiment_atom()
    p = case_polynomial(case, level)
    scale_family = square_scales if case == "billy" else dyadic_scales
    family = scale_family(max(m_list))
    position = {scale: t for t, scale in enumerate(family)}
    terms = build_operator(p, family, grid, atom=atom, quad_order=quad_order, quad_panels=quad_panels)
    profile_norms: dict[tuple[int, bytes], NormResult] = {}

    def norm_at(m: int) -> tuple[NormResult, int, DiscretizedOperator]:
        """(norm of the row's sum, or of its one profile; that profile's count; the row operator)."""
        op = terms.restricted(position[scale] for scale in scale_family(m))
        if len(op.groups) != 1:
            return operator_norm(op, max_iters=max_iters, tol=tol), 1, op
        g = op.groups[0]
        key = (g.lo, g.taps.tobytes())
        if key not in profile_norms:
            single = DiscretizedOperator(grid, [_TapGroup(1, g.lo, g.taps)])
            profile_norms[key] = operator_norm(single, max_iters=max_iters, tol=tol)
        return profile_norms[key], g.count, op

    results = {m: norm_at(m) for m in dict.fromkeys(m_list)}
    base, base_count, _ = results[0] if 0 in results else norm_at(0)
    base_norm = base_count * base.value

    def row(m: int) -> GrowthRow:
        res, count, op = results[m]
        return GrowthRow(
            m,
            level if case == "know" else None,
            count * res.value,
            # count x (profile / base) keeps kitty's ratios exact integers
            count * (res.value / base_norm) if base_norm else float("inf"),
            res.iterations,
            res.converged,
            op.band,
            op.fft_length,
        )

    return GrowthTable(case, grid, quad_order, tuple(row(m) for m in m_list))
