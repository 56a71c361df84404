"""Truncated-Fock-space linear algebra: states, operators, the beam splitter.

A single bosonic mode is represented on the number basis |0>, ..., |N-1>.
One tail guard holds on every basis: a unit state carries at most 1e-8 at
its top level.  ``check_tail`` refuses a state past it, and
``coherent_state`` a basis below ``min_dim_for_coherent``, the same rule.
The two-mode beam splitter conserves the total photon number, so it is
given one photon-number sector at a time; no truncation enters there.

A state is the unit vector along the amplitudes it is given, normalized
once, in its constructor, and marked read-only; densities and operators are
read-only complex128 (d, d) arrays, d >= 2, so values can be shared across
threads.  ``to_density`` checks nothing, as its density is valid by
construction; ``check_density`` freezes a checked copy of any other density.
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
    "TruncationError",
    "check_density",
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

    Carries ``suggested_dim``, a dimension expected to be large enough, or None from the herald gate.
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


def _unit_scaled(amps: np.ndarray) -> np.ndarray:
    """A new array of ``amps`` times the power of two that brings their largest real or imaginary part into [0.5, 1):
    exact but for parts that it takes below the normal range, so its norm neither overflows nor underflows."""
    parts = amps.view(np.float64)
    return np.ldexp(parts, -math.frexp(max(parts.max(), -parts.min()))[1]).view(np.complex128)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of one mode: the unit vector along ``amps`` over the number basis.

    The constructor divides the norm out of the amplitudes scaled exactly
    (``_unit_scaled``), so that a norm past the float range has a unit form
    too, and refuses an all-zero vector.  Apply an operator as
    ``StateVector(op @ psi.amps, psi.trunc)`` for the normalized image; the
    herald models return a unit state and its herald weight apart.
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
        if not amps.any():
            raise ValueError("cannot normalize an all-zero vector")
        amps = _unit_scaled(amps)
        amps /= np.linalg.norm(amps)
        object.__setattr__(self, "amps", _read_only(amps))

    def to_density(self) -> np.ndarray:
        """|psi><psi|, Hermitian bit for bit: a fused complex multiply rounds psi_i psi_j* and psi_j psi_i* apart,
        so the upper triangle is mirrored, conjugated, and the diagonal made real."""
        rho = np.outer(self.amps, self.amps.conj())
        np.copyto(rho, rho.T.conj(), where=np.tri(self.trunc.dim, k=-1, dtype=bool))
        np.fill_diagonal(rho.imag, 0.0)
        # finite, Hermitian, unit-trace and positive semidefinite by construction, so frozen unchecked and uncopied
        return _read_only(rho)


def _density(rho) -> np.ndarray:
    """``rho`` as a complex128 array, uncopied where it is one; the one shape rule of every function that takes a
    density refuses any shape but (d, d) with d >= 2."""
    rho = np.asarray(rho, dtype=np.complex128)
    _require("density shape", ((lambda s: len(s) == 2 and s[0] == s[1] >= 2), "(d, d) with d >= 2"), rho.shape)
    return rho


def check_density(rho) -> np.ndarray:
    """A frozen complex128 copy of ``rho``, refused unless it is a density: a finite (d, d) array, d >= 2, Hermitian
    to 1e-12, of trace 1 to 1e-10 and with no eigenvalue below -1e-10."""
    rho = _density(np.array(rho, dtype=np.complex128))
    if not np.all(np.isfinite(rho)):
        i, j = np.argwhere(~np.isfinite(rho))[0]
        raise ValueError(f"density entry [{i}, {j}] is not finite: {rho[i, j]}")
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"trace {tr:.12g} deviates from 1 beyond {_TRACE_TOL:g}")
    if (lo := float(np.min(np.linalg.eigvalsh(rho)))) < _EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has negative eigenvalue {lo:.3e}")
    return _read_only(rho)


def _dim(state) -> int:
    """The basis size of a StateVector or a density."""
    return state.trunc.dim if isinstance(state, StateVector) else len(_density(state))


def _require_same_dim(x, y):
    if (dx := _dim(x)) != (dy := _dim(y)):
        raise ValueError(f"dimension mismatch: {dx} vs {dy}")


def _require_operator_on(op: np.ndarray, dim: int) -> None:
    if op.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: operator of shape {op.shape} on {dim} levels")


# ---------------------------------------------------------------------------
# constructors


def fock_state(n: int, trunc: Truncation) -> StateVector:
    """Number state |n>."""
    _require("n", _int_rule(0, trunc.dim - 1), n)
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, trunc)


def _coherent_size(alpha: complex) -> float:
    """|alpha|, refused where exp(-|alpha|^2/2) is no normal double (|alpha| > 37.6), as no basis holds the state."""
    size = math.hypot(complex(alpha).real, complex(alpha).imag)  # past the float range abs() raises, hypot gives inf
    if (vacuum := math.exp(-size * size / 2.0)) < np.finfo(np.float64).tiny:  # where size ** 2 would raise
        raise ValueError(f"coherent amplitude |alpha|={size:.4g} underflows exp(-|alpha|^2/2) = {vacuum:.3g}")
    return size


def min_dim_for_coherent(alpha: complex, tail_tol: float) -> int:
    """Smallest dim >= 2 on which the coherent state |alpha> carries at most ``tail_tol`` at its top level.

    That is ``check_tail``'s quantity, the unit state's top-level weight, found by a walk up the levels on ratios
    alone: the Poisson weights of levels n - 1 and n stand in the ratio n / |alpha|^2, so on n + 1 levels the top
    weight is w_n = |alpha|^2 w_{n-1} / (|alpha|^2 w_{n-1} + n), from w_0 = 1.  No Poisson weight is formed, w stays
    in [0, 1], and the walk takes O(|alpha|^2) steps at a fixed ``tail_tol``.  Raises ``ValueError`` when
    exp(-|alpha|^2/2) is not a normal double (|alpha| > 37.6), in :func:`coherent_state`'s words.
    """
    _require("alpha", ((lambda v: cmath.isfinite(complex(v))), "a finite number"), alpha)
    _require("tail_tol", ((lambda v: v > 0.0), "a positive number"), tail_tol)
    lam = _coherent_size(alpha) ** 2
    n, top = 1, lam / (lam + 1.0)
    while top > tail_tol:
        n += 1
        top = lam * top / (lam * top + n)
    return n + 1


def coherent_state(alpha: complex, trunc: Truncation) -> StateVector:
    """Coherent state with amplitude ``alpha``, renormalized on the basis.

    Amplitudes follow the Poissonian closed form exp(-|a|^2/2) a^n / sqrt(n!).
    Raises ``ValueError`` when exp(-|a|^2/2) is not a normal double (|a| > 37.6),
    and else :class:`TruncationError` below ``min_dim_for_coherent(alpha, 1e-8)``
    levels, so that every state built here passes ``check_tail``.
    """
    size = _coherent_size(alpha)  # an infinite alpha is refused here, as an underflow, before the walk
    needed = min_dim_for_coherent(alpha, _TAIL_TOL)
    if trunc.dim < needed:
        raise TruncationError(f"coherent amplitude |alpha|={size:.4g} needs dim >= {needed} at tail_tol "
                              f"{_TAIL_TOL:g}, got {trunc.dim}", suggested_dim=needed)
    amps = np.zeros(trunc.dim, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, trunc.dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return StateVector(amps, trunc)


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
    """<O> for an (N, N) operator array on a StateVector or a density, an (N, N) array: <psi|O|psi> on the unit
    state, tr(rho O) on the density."""
    _require_operator_on(op, _dim(state))
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amps, op @ state.amps))
    return complex(np.trace(_density(state) @ op))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; an eigenvalue within eigh's rounding of 0 (dim eps max) counts as 0."""
    w, v = np.linalg.eigh(m)
    w = np.where(w > m.shape[0] * np.finfo(np.float64).eps * w[-1], w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(x, y) -> float:
    """Fidelity in [0, 1] of two states, each a StateVector (a unit state) or a density (a numpy array): |<x|y>|^2
    for two unit states, <x|y|x> for a unit x and a density y, in either order, and Uhlmann's for two densities."""
    if not all(isinstance(s, (StateVector, np.ndarray)) for s in (x, y)):
        raise TypeError("fidelity expects StateVector or numpy array arguments")
    if isinstance(y, StateVector) and not isinstance(x, StateVector):
        x, y = y, x
    _require_same_dim(x, y)
    if isinstance(y, StateVector):
        val = abs(inner_product(x, y)) ** 2
    elif isinstance(x, StateVector):
        val = float(np.real(np.vdot(x.amps, _density(y) @ x.amps)))
    else:
        # Uhlmann's (sum_i sigma_i(sqrt(x) sqrt(y)))^2: symmetric in x and y, and it takes no square root
        # of the near-zero eigenvalues of sqrt(x) y sqrt(x), which amplifies their rounding
        val = float(np.sum(np.linalg.svd(_psd_sqrt(_density(x)) @ _psd_sqrt(_density(y)), compute_uv=False)) ** 2)
    return float(min(max(val, 0.0), 1.0))


# ---------------------------------------------------------------------------
# truncation bookkeeping


def check_tail(state: StateVector, context: str = "") -> None:
    """Raise :class:`TruncationError` when the unit state's weight at the top level, |amps[-1]|^2, is above the
    tail guard's 1e-8."""
    if (w := float(abs(state.amps[-1]) ** 2)) > _TAIL_TOL:
        dim = state.trunc.dim
        suggested = dim + max(8, dim // 2)
        where = f" ({context})" if context else ""
        raise TruncationError(f"top-level weight {w:.3e} exceeds tail_tol {_TAIL_TOL:g}{where}; retry with dim >= "
                              f"{suggested}", suggested_dim=suggested)


def project_density(rho: np.ndarray, trunc: Truncation) -> np.ndarray:
    """Cut a density down to a smaller truncation and renormalize; the result is checked (``check_density``)."""
    rho = _density(rho)
    _require("trunc.dim", ((lambda v: v <= len(rho)), f"at most the source dim {len(rho)}"), trunc.dim)
    block = rho[: trunc.dim, : trunc.dim]
    tr = float(np.real(np.trace(block)))
    if tr < ZERO_NORM_TOL:
        raise ValueError("density matrix has no weight inside the projection target")
    return check_density(block / tr)


# ---------------------------------------------------------------------------
# density serialization: {"dim": N, "data": row-major [re, im] pairs}


def density_json_text(rho: np.ndarray) -> str:
    """``json.dumps({"dim": N, "data": pairs}, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``pairs`` holds each entry's ``[re, im]``, row-major.  json writes a finite float as its ``repr``, so one join
    of the fixed separators and the reprs gives the same text without json's pure-Python indenting encoder.  A
    finite x >= 0 has ``repr(-x) == "-" + repr(x)``, -0.0 included, so each distinct magnitude is written once and
    signed where the value's sign bit is set; a density from ``to_density`` or ``apply_loss`` is Hermitian bit for
    bit, repeating each off-diagonal magnitude.  Raises ``ValueError`` naming the first nan or inf entry.
    """
    dim = len(rho := _density(rho))
    flat = rho.reshape(-1)
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


def density_from_json(obj: dict) -> np.ndarray:
    """The density that ``obj`` holds in the file format above, checked (``check_density``)."""
    dim = obj["dim"]
    _require("dim", Truncation.DIM, dim)
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.shape != (dim * dim, 2):
        raise ValueError(f"density data shape {data.shape} does not match dim {dim}")
    return check_density((data[:, 0] + 1j * data[:, 1]).reshape(dim, dim))
