"""Fixed-step RK4 synthesis of a curve and its frame from a profile.

The state is (alpha, T, N, B1, B2) in R^20. The frame block satisfies the
linear system F' = A(s) F with A from frames.frenet_matrix, and alpha' = T.
Because the system is linear, one RK4 step is F <- F + D_i F and
alpha <- alpha + q_i F, with D_i and q_i built _STEP_BLOCK steps at a
time from the Frenet matrices on the half-step lattice. Every frame is
then the initial one times a prefix product of the propagators I + D_i,
which a work-efficient scan computes with about 2 * steps batched 4x4
products in 2 ceil(log2(steps)) rounds, with no loop over the steps (see
_prefix_increments). The scan carries increments, F_{j+1} = F_0 + E_j F_0
with I + E_j the product of the first j + 1 propagators, so, like
F + D_i F (and unlike a scan of I + D_i), it never adds the identity to
the small entries and keeps the roundoff of the classical per-stage
scheme.

Gram drift is not corrected. Once the frames are known, the positions
are summed over the whole grid and the Gram residuals taken in step
blocks; the run then aborts, naming the first step whose residual
passed 1000 * EPS_GRAM, since results are meaningless past that. The
scan is causal (E_j depends on steps 0..j only), so steps before a
blow-up keep their values. Beyond the trace, integration holds only D
(scanned in place, with carries of at most half its size), q and one
block's temporaries.
"""

from __future__ import annotations

import logging
import math
from functools import cached_property
from typing import Optional

import numpy as np

from .calculus import grid_derivative, lattice_integral
from .errors import ConfigError, FrameError, IntegrationError
from .frames import (FrameKind, canonical_frame, frame_family, frenet_matrix,
                     gram_residual)
from .minkowski import pairing
from .profiles import CurvatureProfile, is_number, require_family_rules

log = logging.getLogger("lcl.integrator")

EPS_GRAM = 1e-6  # initial-frame Gram tolerance; 1000 x it aborts a run
DEFAULT_STEP_FRACTION = 1e-3
ABORT_FACTOR = 1e3
_STEP_BLOCK = 1024  # steps built at a time; the default run is one block


class CurveTrace:
    """Sampled curve: positions and frames on the integration grid s, and
    the curvatures the integration evaluated on its half-step lattice
    s_min + i*h/2, on which the family rules hold. lattice is that
    (kappa, tau, sigma); the kappa, tau and sigma attributes are its even
    points, on s. A classification's checks, integrals, axes and oracle
    all read this one evaluation.
    """

    def __init__(self, profile: CurvatureProfile, s: np.ndarray, h: float,
                 lattice: tuple, positions: np.ndarray, frames: np.ndarray,
                 gram_res: np.ndarray):
        self.profile = profile
        self.s = s                    # (n,)
        self.h = h
        self.lattice = lattice        # (kappa, tau, sigma), each (2n - 1,)
        # (n,) each: views of the lattice's even points, not copies
        self.kappa, self.tau, self.sigma = (c[::2] for c in lattice)
        self.positions = positions    # (n, 4)
        self.frames = frames          # (n, 4, 4), rows T, N, B1, B2
        self.gram_res = gram_res      # (n,) max abs Gram deviation per point

    @property
    def kind(self) -> FrameKind:
        return self.profile.kind

    @cached_property
    def curvature_integrals(self) -> np.ndarray:
        """(Int kappa, Int tau) from s_min on the lattice, shape
        (2, 2n - 1): Simpson's rule over each step (lattice_integral)."""
        return lattice_integral(self.lattice[:2], self.h)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def max_gram_residual(self) -> float:
        return float(np.max(self.gram_res))


def _finite_array(value, what: str, shape: tuple, dims: str) -> np.ndarray:
    """`value` as a finite float array of `shape`, else FrameError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"{what} is not a numeric array: {exc}") from exc
    if arr.shape != shape:
        raise FrameError(f"{what} must be {dims}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FrameError(f"{what} has a non-finite entry")
    return arr


def check_step(h) -> float:
    """h as a float; ConfigError unless it is a number (is_number: not a
    bool, a string or an array), positive and finite."""
    if not is_number(h):
        raise ConfigError(f"step h must be a real number, got {h!r}")
    h = float(h)
    if not (h > 0.0) or not math.isfinite(h):
        raise ConfigError(f"step h must be positive and finite, got {h}")
    return h


def integrate_frame(profile: CurvatureProfile,
                    initial: Optional[np.ndarray] = None,
                    alpha0: Optional[np.ndarray] = None,
                    h: Optional[float] = None) -> CurveTrace:
    """Integrate the frame equations over the profile domain.

    Grid: s_i = s_min + i*h for i = 0..floor(span/h). Default h is
    1e-3 * span; h may be at most span/10, so a trace has at least 11
    points (the oracle's m >= 4 stacks rely on it). `initial` is a 4 x 4
    frame, rows T, N, B1, B2 (default canonical_frame); `alpha0` is the
    starting position, a length-4 array (default the origin). The
    family rules run on the curvatures of the half-step lattice
    s_min + i*h/2, the values the trace holds.
    Raises ProfileError where they fail, IntegrationError if Gram drift
    passes 1000 * EPS_GRAM, ConfigError for a bad step, and FrameError
    for an initial frame or alpha0 that is not a finite numeric array of
    its shape, or an initial frame off its Gram targets by more than
    EPS_GRAM.
    """
    span = profile.span
    h = check_step(DEFAULT_STEP_FRACTION * span if h is None else h)
    if h > span / 10.0:
        raise ConfigError(f"step h = {h} too large for domain span {span}")

    steps = int(math.floor(span / h + 1e-9))
    n = steps + 1
    s = profile.s_min + h * np.arange(n)
    # curvatures on the half-step lattice: the values every check reads
    s_half = profile.s_min + (h / 2.0) * np.arange(2 * steps + 1)
    lattice = profile.evaluate_arrays(s_half)
    require_family_rules(profile, *lattice)

    frame0 = _finite_array(
        canonical_frame(profile.kind) if initial is None else initial,
        "initial frame", (4, 4), "4 x 4")
    res0 = gram_residual(frame0, profile.kind)
    if res0 > EPS_GRAM:
        raise FrameError(f"initial frame Gram residual {res0:.3g} exceeds "
                         f"EPS_GRAM = {EPS_GRAM:.3g}")
    pos0 = _finite_array(np.zeros(4) if alpha0 is None else alpha0,
                         "alpha0", (4,), "length 4")

    # a blown-up run overflows in its increments or scans on past its
    # first bad step; the abort below reports it, so overflow warnings
    # are noise
    with np.errstate(over="ignore", invalid="ignore"):
        d, q = _rk4_increments(lattice, profile.kind, h)

        positions = np.empty((n, 4))
        frames = np.empty((n, 4, 4))
        positions[0] = pos0
        frames[0] = frame0
        e = _prefix_increments(d)
        # every E_j F0 at once: one (4 steps x 4) x (4 x 4) product
        np.matmul(e.reshape(-1, 4), frame0, out=frames[1:].reshape(-1, 4))
        frames[1:] += frame0

        # positions: alpha_{i+1} = alpha_i + q_i F_i, summed in step order
        np.matmul(q[:, None, :], frames[:-1], out=positions[1:, None, :])
        np.cumsum(positions, axis=0, out=positions)

        del d, e, q  # the Gram check reads the frames only
        gram_res = np.empty(n)
        for i in range(0, n, _STEP_BLOCK):
            gram_res[i:i + _STEP_BLOCK] = gram_residual(
                frames[i:i + _STEP_BLOCK], profile.kind)

    abort_at = ABORT_FACTOR * EPS_GRAM
    past = np.flatnonzero(~(gram_res <= abort_at))
    if past.size:
        i = int(past[0])
        raise IntegrationError(
            f"Gram drift {gram_res[i]:.3g} exceeded {abort_at:.3g} at step "
            f"{i} (s = {s[i]:.6g}); reduce h or check the profile")

    if log.isEnabledFor(logging.DEBUG):
        log.debug("integrated %s profile over [%g, %g], %d steps, "
                  "max drift %.3g", profile.kind.value, profile.s_min,
                  profile.s_max, steps, float(np.max(gram_res)))
    return CurveTrace(profile=profile, s=s, h=h, lattice=lattice,
                      positions=positions, frames=frames, gram_res=gram_res)


def _rk4_increments(lattice: tuple, kind: FrameKind, h: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Every RK4 step of F' = A F as an increment, F <- F + D_i F.

    lattice holds (kappa, tau, sigma) on the half-step lattice; with A
    its Frenet matrices, step i uses A0 = A[2i], Am = A[2i+1],
    A1 = A[2i+2]. With the stage matrices
    K1 = A0, K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3),
    D_i = h/6 (K1 + 2 K2 + 2 K3 + K4). The position increment is q_i F_i
    with q_i = h e0 + h^2/6 (K1 + K2 + K3)[0], the RK4 weights of the T
    rows of the four stages. Returns (D, q) of shapes (steps, 4, 4) and
    (steps, 4), the only whole-grid arrays: each block of _STEP_BLOCK
    steps makes its own A and stages and copies its D and q into their
    slices, with the same per-step arithmetic, and so the same bits, at
    any block size.
    """
    steps = (lattice[0].shape[0] - 1) // 2
    d = q = None
    for i in range(0, steps, _STEP_BLOCK):
        j = min(i + _STEP_BLOCK, steps)
        mats = frenet_matrix(*(c[2 * i:2 * j + 1] for c in lattice), kind)
        a0, am, a1 = mats[0:-1:2], mats[1::2], mats[2::2]
        k2 = np.matmul(am, a0)
        k2 *= h / 2.0
        k2 += am
        k3 = np.matmul(am, k2)
        k3 *= h / 2.0
        k3 += am
        qb = a0[:, 0, :] + k2[:, 0, :] + k3[:, 0, :]
        qb *= h * h / 6.0
        qb[:, 0] += h
        db = np.matmul(a1, k3)
        db *= h
        db += a1
        db += a0
        k2 += k3
        k2 *= 2.0
        db += k2
        db *= h / 6.0
        # one block is returned as built: copied into arrays allocated
        # first, it left a heap that slowed run_theorem_suite by ~8%
        if j - i == steps:
            return db, qb
        if d is None:
            d, q = np.empty((steps, 4, 4)), np.empty((steps, 4))
        d[i:j], q[i:j] = db, qb
    return d, q


def _prefix_increments(d: np.ndarray) -> np.ndarray:
    """Cumulative propagators I + E_j = (I + D_j) ... (I + D_0), in place.

    A work-efficient scan (Blelloch 1990) on strided views. A later
    block absorbs the earlier one it follows as
    (I + E_b)(I + E_a) = I + E_b + (E_a + E_b E_a). Each odd position
    absorbs the even one before it, the odd positions are scanned the
    same way, and each even position from 2 on absorbs the finished odd
    one before it. That is about 2 * steps batched 4x4 products in
    2 ceil(log2(steps)) rounds. Only increments are stored and
    multiplied, never I + E: the identity would swamp the small entries
    and lose their roundoff, as (I + D_i) F does against F + D_i F. E_j
    reads only D_0 .. D_j, so a step that overflows spoils no earlier
    one.
    """
    if d.shape[0] < 2:
        return d
    even, odd = d[0::2], d[1::2]
    _absorb(odd, even[:odd.shape[0]])
    _prefix_increments(odd)
    later = even[1:]
    _absorb(later, odd[:later.shape[0]])
    return d


def _absorb(later: np.ndarray, earlier: np.ndarray) -> None:
    """later <- later + (earlier + later @ earlier), batched, in place."""
    carry = np.matmul(later, earlier)
    carry += earlier
    later += carry


def resample_curvatures(trace: CurveTrace
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (kappa, tau, sigma) arrays from a trace.

    Frame derivatives come from grid stencils and are paired against the
    family's FrameFamily.duals, the rows its equations make dual to each
    coefficient:

        partially null: kappa = g(T', N),  tau = g(N', B2), sigma = g(B1', B2)
        pseudo null:    kappa = g(T', B2), tau = g(N', B1), sigma = g(B1', B2)

    The two points at each end use shifted stencils; treat the interior
    as authoritative.
    """
    if trace.n < 5:
        raise ValueError("trace too short to resample curvatures")
    d = grid_derivative(trace.frames, trace.h, order=1)
    duals = frame_family(trace.kind).duals
    return tuple(pairing(d[:, i], trace.frames[:, j])
                 for i, j in enumerate(duals))


CSV_HEADER = ("s,x1,x2,x3,x4,T1,T2,T3,T4,N1,N2,N3,N4,"
              "B11,B12,B13,B14,B21,B22,B23,B24,gram_residual")
# rows formatted at a time: the writer's working memory, about 115 bytes
# per value (1.0 MiB a block), stays below the integration's own peak
# (tested). Of 320 to 512 rows, 448 and 512 ran within the run-to-run
# spread of 416 on fine_synth, and nothing ran faster
_CSV_BLOCK_ROWS = 416


def write_trace_csv(trace: CurveTrace, path) -> None:
    """Write the trace with 17 significant digits, one row per grid point.

    The bytes are those of `'%.17g' % v` for every value, formatted a
    block of rows at a time by _format17g.
    """
    from ._format17g import format_rows  # only writers pay its import

    frames = trace.frames.reshape(trace.n, 16)
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for i in range(0, trace.n, _CSV_BLOCK_ROWS):
            rows = slice(i, i + _CSV_BLOCK_ROWS)
            fh.write(format_rows(np.concatenate(
                [trace.s[rows, None], trace.positions[rows], frames[rows],
                 trace.gram_res[rows, None]], axis=1)))
