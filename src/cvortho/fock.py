"""Truncated-Fock-space linear algebra: states, operators, the beam splitter.

A single bosonic mode is represented on the number basis |0>, ..., |N-1>.
One tail guard holds on every basis: a coherent state, and any state that
``check_tail`` admits, carries at most 1e-8 of its weight at the top level.
The two-mode beam splitter conserves the total photon number, so it is
given one photon-number sector at a time; no truncation enters there.

States and densities are immutable: their arrays are copied on construction
and marked read-only.  Operators are frozen (read-only) complex128 (d, d)
arrays.  So values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZERO_NORM_TOL",
    "Truncation",
    "StateVector",
    "DensityMatrix",
    "TruncationError",
    "fock_state",
    "coherent_state",
    "min_dim_for_coherent",
    "ladder_operators",
    "beam_splitter_op",
    "inner_product",
    "expectation",
    "fidelity",
    "check_tail",
    "project_density",
    "density_from_json",
    "density_json_text",
]

# A state with norm below this is numerically zero: an impossible herald
# outcome or an orthogonalized eigenstate; below double-precision
# meaningfulness for normalized inputs.
ZERO_NORM_TOL = 1e-12

# The tail guard: the most weight an admitted state may carry at the top level, checked where weight can move up
_TAIL_TOL = 1e-8

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10


class TruncationError(ValueError):
    """A state carries too much probability weight at the top basis level.

    Carries ``suggested_dim``, a dimension expected to be large enough.
    """

    def __init__(self, message: str, suggested_dim: int | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


def _require(name: str, rule, value) -> None:
    """Raise ValueError("<name>: must be <description>, got <value>") unless ``rule = (check, description)`` passes."""
    check, description = rule
    if not check(value):
        raise ValueError(f"{name}: must be {description}, got {value!r}")


def _int_rule(low: int, high: int | None = None):
    """The rule "an integer >= low" (or "in low..high"); a bool is not an integer here."""
    return ((lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool) and low <= v
             and (high is None or v <= high)), f"an integer >= {low}" if high is None else f"an integer in {low}..{high}")


@dataclass(frozen=True)
class Truncation:
    """Fock-basis cutoff keeping levels |0> ... |dim-1>."""

    dim: int
    DIM = _int_rule(2)

    def __post_init__(self):
        _require("dim", self.DIM, self.dim)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _freeze(obj, name, arr):
    object.__setattr__(obj, name, _read_only(arr))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of one mode: complex amplitudes over the number basis.

    Not necessarily normalized; conditional states carry their norm as a
    success amplitude.  Use :meth:`normalized` before overlap comparisons.
    """

    amps: np.ndarray
    trunc: Truncation

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != self.trunc.dim:
            raise ValueError(
                f"amplitude count {amps.shape[0]} does not match truncation dim {self.trunc.dim}"
            )
        if not np.all(np.isfinite(amps)):
            i = int(np.argmin(np.isfinite(amps)))
            raise ValueError(f"amplitude {i} is not finite: {amps[i]}")
        _freeze(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    @property
    def top_weight(self) -> float:
        """Probability weight at the top retained level, relative to the norm."""
        n2 = self.norm**2
        if n2 == 0.0:
            return 0.0
        return float(abs(self.amps[-1]) ** 2 / n2)

    def normalized(self) -> "StateVector":
        with np.errstate(over="ignore"):  # finite amplitudes whose squares sum past the float range: refused below
            n = self.norm
        if n < ZERO_NORM_TOL:
            raise ValueError("cannot normalize a (numerically) zero state")
        if n == math.inf:
            raise ValueError("cannot normalize a state whose norm overflows")
        return StateVector(self.amps / n, self.trunc)

    def to_density(self) -> "DensityMatrix":
        """|psi><psi| of the normalized state, Hermitian bit for bit: a fused complex multiply rounds psi_i psi_j*
        and psi_j psi_i* apart, so the upper triangle is mirrored, conjugated, and the diagonal made real."""
        psi = self.normalized()
        elems = np.outer(psi.amps, psi.amps.conj())
        np.copyto(elems, elems.T.conj(), where=np.tri(self.trunc.dim, k=-1, dtype=bool))
        np.fill_diagonal(elems.imag, 0.0)
        # finite, Hermitian, unit-trace and positive semidefinite by construction, so frozen unchecked and uncopied
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "trunc", self.trunc)
        _freeze(rho, "elems", elems)
        return rho


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix over the basis."""

    elems: np.ndarray
    trunc: Truncation

    def __post_init__(self):
        elems = np.array(self.elems, dtype=np.complex128)
        if elems.shape != (self.trunc.dim, self.trunc.dim):
            raise ValueError(
                f"matrix shape {elems.shape} does not match truncation dim {self.trunc.dim}"
            )
        if not np.all(np.isfinite(elems)):
            i, j = np.argwhere(~np.isfinite(elems))[0]
            raise ValueError(f"density entry [{i}, {j}] is not finite: {elems[i, j]}")
        herm_defect = float(np.max(np.abs(elems - elems.conj().T)))
        if herm_defect > _HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        tr = complex(np.trace(elems))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {tr:.12g} deviates from 1 beyond {_TRACE_TOL:g}")
        if (lo := float(np.min(np.linalg.eigvalsh(elems)))) < _EIGENVALUE_FLOOR:
            raise ValueError(f"matrix has negative eigenvalue {lo:.3e}")
        _freeze(self, "elems", elems)


def _require_same_dim(x, y):
    if x.trunc.dim != y.trunc.dim:
        raise ValueError(f"dimension mismatch: {x.trunc.dim} vs {y.trunc.dim}")


def _require_operator_on(op: np.ndarray, trunc: Truncation) -> None:
    if op.shape != (trunc.dim, trunc.dim):
        raise ValueError(f"dimension mismatch: operator of shape {op.shape} on {trunc.dim} levels")


# ---------------------------------------------------------------------------
# constructors


def fock_state(n: int, trunc: Truncation) -> StateVector:
    """Number state |n>."""
    _require("n", _int_rule(0, trunc.dim - 1), n)
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, trunc)


def _log_poisson_pmf(j: int, lam: float) -> float:
    """log P(X = j) for X Poisson of mean lam > 0; from j = 50 on by Stirling's series, since lgamma(j + 1)
    itself rounds by up to 1.5e-11 at j = 1e4."""
    if j < 50:
        return j * math.log(lam) - lam - math.lgamma(j + 1)
    return (j * math.log1p((lam - j) / j) - (lam - j) - 0.5 * math.log(2 * math.pi * j)
            - (1 / 12 - (1 / 360 - 1 / (1260 * j * j)) / (j * j)) / j)


def _poisson_tail(k: int, lam: float) -> float:
    """P(X > k) for X Poisson of mean lam >= 0, at any integer k: an exact sum in term ratios outward from the mode
    (from level k + 1 up, or 1 - P(X <= k) from level k down for k + 1 < lam), of O(sqrt(lam)) terms, as fits the
    means up to 37.6^2 that ``min_dim_for_coherent`` passes; 0.0 from k >= max(745, e^2 lam) on, where Chernoff's
    bound e^-lam (e lam / (k + 1))^(k + 1) is below e^-746."""
    if k < 0 or lam == 0.0:
        return float(k < 0)
    if k >= max(745, math.e**2 * lam):
        return 0.0
    below = k + 1 < lam
    j = k if below else k + 1
    term, total = math.exp(_log_poisson_pmf(j, lam)), 0.0
    while term > total * 1e-17:
        total += term
        j += -1 if below else 1
        term *= (j + 1) / lam if below else lam / j
    return 1.0 - total if below else total


def _coherent_size(alpha: complex) -> float:
    """|alpha|, refused where exp(-|alpha|^2/2) is no normal double (|alpha| > 37.6), as no basis holds the state."""
    size = math.hypot(complex(alpha).real, complex(alpha).imag)  # past the float range abs() raises, hypot gives inf
    if (vacuum := math.exp(-size * size / 2.0)) < np.finfo(np.float64).tiny:  # where size ** 2 would raise
        raise ValueError(f"coherent amplitude |alpha|={size:.4g} underflows exp(-|alpha|^2/2) = {vacuum:.3g}")
    return size


def min_dim_for_coherent(alpha: complex, tail_tol: float) -> int:
    """Smallest dim such that a coherent state fits under the tail guard.

    The returned N keeps the Poisson weight at and beyond level N-1,
    ``_poisson_tail(N-2, |alpha|^2)``, at most ``tail_tol``, so the
    constructed state satisfies the admission invariant.  One bisection on
    ``_poisson_tail`` finds N.  Raises ``ValueError`` when exp(-|alpha|^2/2)
    is not a normal double (|alpha| > 37.6), in :func:`coherent_state`'s
    words: no basis holds that state.
    """
    _require("alpha", ((lambda v: cmath.isfinite(complex(v))), "a finite number"), alpha)
    _require("tail_tol", ((lambda v: v > 0.0), "a positive number"), tail_tol)
    lam = _coherent_size(alpha) ** 2
    low, high = -1, math.ceil(lam)  # the tail beyond level low is above tail_tol; beyond high it is not
    while _poisson_tail(high, lam) > tail_tol:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if _poisson_tail(mid, lam) > tail_tol else (low, mid)
    return high + 2


def coherent_state(alpha: complex, trunc: Truncation) -> StateVector:
    """Coherent state with amplitude ``alpha``, renormalized on the basis.

    Amplitudes follow the Poissonian closed form exp(-|a|^2/2) a^n / sqrt(n!).
    Raises ``ValueError`` when exp(-|a|^2/2) is not a normal double (|a| > 37.6),
    and else :class:`TruncationError` when the truncation cannot hold the state.
    """
    size = _coherent_size(alpha)  # an infinite alpha is refused here, as an underflow, before the search
    needed = min_dim_for_coherent(alpha, _TAIL_TOL)
    if trunc.dim < needed:
        raise TruncationError(f"coherent amplitude |alpha|={size:.4g} needs dim >= {needed} at tail_tol "
                              f"{_TAIL_TOL:g}, got {trunc.dim}", suggested_dim=needed)
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, trunc.dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return StateVector(amps / np.linalg.norm(amps), trunc)


def ladder_operators(trunc: Truncation):
    """Annihilation, creation, and number operators (a, a_dag, n) as read-only complex (N, N) arrays.

    a|n> = sqrt(n)|n-1> and a_dag|n> = sqrt(n+1)|n+1> for n < N-1; the top
    level is annihilated by a_dag, so [a, a_dag] = 1 only on levels 0..N-2.
    a is real, so a_dag is its transposed view.  n = a_dag a is formed on its
    diagonal, sqrt(k) * sqrt(k), which gives the same floats as the dense
    product at O(N) cost.
    """
    offdiag = np.sqrt(np.arange(1, trunc.dim, dtype=np.float64))
    a = _read_only(np.diag(offdiag, k=1).astype(np.complex128))
    return a, a.T, _read_only(np.diag(np.concatenate(([0.0], offdiag * offdiag))).astype(np.complex128))


def _sector_blocks(theta: float, dim: int):
    """Yield, for N = 0..2 dim - 2 in turn, the beam-splitter block of sector N on two ``dim``-level modes.

    Block N has the N+1 output rows |N-j, j> and the input columns |N-k, k>
    with both levels below ``dim``, k = max(0, N-dim+1)..min(N, dim-1).  It
    comes from block N-1 through N <p,q| = sqrt(p) <p-1,q| a1 + sqrt(q) <p,q-1| a2
    and a1 B = B (t a1 - r a2), a2 B = B (r a1 + t a2): every entry is a sum
    of four entries of the block before, with the row weights sqrt(p/N),
    sqrt(q/N) and the column pairs (t, -r), (r, t) each of unit norm, so the
    unitarity defect stays below 3e-14 up to N = 160 (where expm's reaches
    1e-12).  Only two blocks are alive at a time.
    """
    t, r = math.cos(theta), math.sin(theta)
    root = np.sqrt(np.arange(2.0 * dim))
    block = np.ones((1, 1))
    yield block
    for n in range(1, 2 * dim - 1):
        lo, hi = max(0, n - dim + 1), min(n, dim - 1)
        moved = lo - max(0, n - dim)  # 1 where the column window starts one level later than block n-1's
        padded = np.zeros((n + 2, block.shape[1] + 2))  # block n-1 inside a border of zeros
        padded[1:-1, 1:-1] = block
        same, left = padded[:, 1 + moved: 2 + moved + hi - lo], padded[:, moved: 1 + moved + hi - lo]  # columns k, k-1
        down, up = root[n - hi: n - lo + 1][::-1], root[lo: hi + 1]  # sqrt(n - k), sqrt(k) over the columns
        block = (root[n::-1, None] / n * (same[1:] * (t * down) - left[1:] * (r * up))
                 + root[: n + 1, None] / n * (same[:-1] * (r * down) + left[:-1] * (t * up)))
        yield block


def beam_splitter_op(theta: float, total: int) -> np.ndarray:
    """Beam-splitter unitary on the sector n1 + n2 = ``total``, with t = cos(theta), r = sin(theta).

    Returns the real (total+1) x (total+1) block over the basis |total-k, k>,
    k = 0..total, exp(theta G) for the tridiagonal sector generator
    G[k+1, k] = sqrt((total-k)(k+1)) = -G[k, k+1], built by the sector
    recurrence of ``_sector_blocks`` on two (total+1)-level modes.  The
    splitter conserves the total photon number, so the block is exact; no
    truncation enters.

    Convention (fixed): conjugation maps the mode-1 creation operator to
    t*(mode 1) + r*(mode 2) and the mode-2 creation operator to
    -r*(mode 1) + t*(mode 2).  Consequently the one-photon block is exactly
    [[t, -r], [r, t]], i.e. B|1,0> = t|1,0> + r|0,1>, and on coherent input
    B (|0> x |beta>) = |-r beta> x |t beta>.
    """
    _require("total", _int_rule(0), total)
    return _read_only(next(itertools.islice(_sector_blocks(theta, total + 1), total, None)))


# ---------------------------------------------------------------------------
# scalars


def inner_product(u: StateVector, v: StateVector) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    _require_same_dim(u, v)
    return complex(np.vdot(u.amps, v.amps))


def expectation(op: np.ndarray, state) -> complex:
    """<O> for an (N, N) operator array on a StateVector (assumed normalized) or a DensityMatrix over N levels."""
    _require_operator_on(op, state.trunc)
    if isinstance(state, DensityMatrix):
        return complex(np.trace(state.elems @ op))
    return complex(np.vdot(state.amps, op @ state.amps))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; an eigenvalue within eigh's rounding of 0 (dim eps max) counts as 0."""
    w, v = np.linalg.eigh(m)
    w = np.where(w > m.shape[0] * np.finfo(np.float64).eps * w[-1], w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(x, y) -> float:
    """Fidelity in [0, 1]: |<x|y>|^2 for pure states, Uhlmann for mixed."""
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        val = abs(inner_product(x, y)) ** 2
    elif isinstance(x, StateVector) and isinstance(y, DensityMatrix):
        _require_same_dim(x, y)
        val = float(np.real(np.vdot(x.amps, y.elems @ x.amps)))
    elif isinstance(x, DensityMatrix) and isinstance(y, StateVector):
        return fidelity(y, x)
    elif isinstance(x, DensityMatrix) and isinstance(y, DensityMatrix):
        _require_same_dim(x, y)
        # Uhlmann's (sum_i sigma_i(sqrt(x) sqrt(y)))^2: symmetric in x and y, and it takes no square root
        # of the near-zero eigenvalues of sqrt(x) y sqrt(x), which amplifies their rounding
        val = float(np.sum(np.linalg.svd(_psd_sqrt(x.elems) @ _psd_sqrt(y.elems), compute_uv=False)) ** 2)
    else:
        raise TypeError("fidelity expects StateVector or DensityMatrix arguments")
    return float(min(max(val, 0.0), 1.0))


# ---------------------------------------------------------------------------
# truncation bookkeeping


def check_tail(state: StateVector, context: str = "") -> None:
    """Raise :class:`TruncationError` when the top-level weight is above the tail guard's 1e-8."""
    w = state.top_weight
    if w > _TAIL_TOL:
        dim = state.trunc.dim
        suggested = dim + max(8, dim // 2)
        where = f" ({context})" if context else ""
        raise TruncationError(
            f"top-level weight {w:.3e} exceeds tail_tol {_TAIL_TOL:g}{where}; "
            f"retry with dim >= {suggested}",
            suggested_dim=suggested,
        )


def project_density(rho: DensityMatrix, trunc: Truncation) -> DensityMatrix:
    """Cut a density matrix down to a smaller truncation and renormalize."""
    _require("trunc.dim", ((lambda v: v <= rho.trunc.dim), f"at most the source dim {rho.trunc.dim}"), trunc.dim)
    block = rho.elems[: trunc.dim, : trunc.dim]
    tr = float(np.real(np.trace(block)))
    if tr < ZERO_NORM_TOL:
        raise ValueError("density matrix has no weight inside the projection target")
    return DensityMatrix(block / tr, trunc)


# ---------------------------------------------------------------------------
# density serialization: {"dim": N, "data": row-major [re, im] pairs}


def density_json_text(rho: DensityMatrix) -> str:
    """``json.dumps({"dim": N, "data": pairs}, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``pairs`` holds each entry's ``[re, im]``, row-major.  json writes a finite float as its ``repr``, so one join
    of the fixed separators and the reprs gives the same text without json's pure-Python indenting encoder.  A
    finite x >= 0 has ``repr(-x) == "-" + repr(x)``, -0.0 included, so each distinct magnitude is written once and
    signed where the value's sign bit is set; a density from ``to_density`` or ``apply_loss`` is Hermitian bit for
    bit, repeating each off-diagonal magnitude.  Raises ``ValueError`` naming the first nan or inf entry.
    """
    dim = rho.trunc.dim
    flat = rho.elems.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        i, j = divmod(int(bad[0]), dim)
        raise ValueError(f"density entry [{i}, {j}] is not finite: {flat[bad[0]]}")
    values = np.column_stack([flat.real, flat.imag]).ravel()
    magnitudes, which = np.unique(np.abs(values), return_inverse=True)
    texts = [repr(m) for m in magnitudes.tolist()]
    texts += ["-" + text for text in texts]  # entry i + len(magnitudes) is magnitude i with its sign
    signed = (which.reshape(-1) + magnitudes.size * np.signbit(values)).tolist()
    parts = ['{\n  "data": [\n    [\n      ', *[None, ",\n      ", None, "\n    ],\n    [\n      "] * (dim * dim)]
    parts[-1] = '\n    ]\n  ],\n  "dim": %d\n}\n' % dim
    parts[1::2] = operator.itemgetter(*signed)(texts)  # between the separators, each entry's re and im
    return "".join(parts)


def density_from_json(obj: dict) -> DensityMatrix:
    dim = int(obj["dim"])
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.shape != (dim * dim, 2):
        raise ValueError(f"density data shape {data.shape} does not match dim {dim}")
    elems = (data[:, 0] + 1j * data[:, 1]).reshape(dim, dim)
    return DensityMatrix(elems, Truncation(dim))
