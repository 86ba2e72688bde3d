"""Fixed-step RK4 synthesis of a curve and its frame from a profile.

The state is (alpha, T, N, B1, B2) in R^20. The frame block satisfies the
linear system F' = A(s) F with A from frames.frenet_matrix, and alpha' = T.
Because the system is linear, one RK4 step is F <- F + D_i F and
alpha <- alpha + q_i F, with D_i and q_i built for every step at once from
the Frenet matrices on the half-step lattice. Only the sweep of 4x4
products stays a Python loop; the increment form F + D_i F (not P_i F with
P_i = I + D_i) keeps the roundoff of the classical per-stage scheme.

In "monitor" mode Gram drift is only recorded; in "project" mode a single
Newton step pulls the frame back onto the Gram constraint set after each
step of the sweep. Drift and positions are computed for the whole grid
once the sweep is done, and the run then aborts, naming the first step
whose residual passed 1000 * eps_gram, since results are meaningless past
that.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import grid_derivative
from .errors import ConfigError, FrameError, IntegrationError
from .frames import (Frame, FrameKind, PAIR_INDICES, canonical_frame,
                     gram_matrix, gram_residual, gram_targets)
from .minkowski import SIGNS, Vec4, pairing
from .profiles import CurvatureProfile

log = logging.getLogger("lcl.integrator")

DEFAULT_EPS_GRAM = 1e-6
DEFAULT_STEP_FRACTION = 1e-3
ABORT_FACTOR = 1e3

DRIFT_MODES = ("monitor", "project")


@dataclass
class CurveTrace:
    """Sampled curve: positions and frames on a uniform grid."""

    kind: FrameKind
    s: np.ndarray                 # (n,)
    positions: np.ndarray         # (n, 4)
    frames: np.ndarray            # (n, 4, 4), rows T, N, B1, B2
    gram_res: np.ndarray          # (n,) max abs Gram deviation per point
    h: float
    profile: Optional[CurvatureProfile] = None
    projection_warnings: int = 0

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def max_gram_residual(self) -> float:
        return float(np.max(self.gram_res))

    def frame(self, i: int) -> Frame:
        return Frame.from_matrix(self.frames[i])

    def position(self, i: int) -> Vec4:
        return Vec4.from_array(self.positions[i])

    def frame_component(self, row: int) -> np.ndarray:
        """All samples of one frame vector; row 0..3 is T, N, B1, B2."""
        return self.frames[:, row, :]


def _project_matrix(f: np.ndarray, kind: FrameKind) -> tuple[np.ndarray, bool]:
    """One Newton step onto the ten Gram constraints.

    Works on the flattened 16 coordinates; the least-squares solve picks
    the minimal-Euclidean-norm correction. Returns (frame, singular_flag);
    a rank-deficient constraint Jacobian, or a frame that has overflowed,
    leaves the frame untouched.
    """
    target = gram_targets(kind)
    gram = gram_matrix(f)
    resid = np.array([gram[i, j] - target[i, j] for i, j in PAIR_INDICES])
    jac = np.zeros((10, 16))
    mf = f * SIGNS  # row i is M V_i
    for row, (i, j) in enumerate(PAIR_INDICES):
        jac[row, 4 * i:4 * i + 4] += mf[j]
        jac[row, 4 * j:4 * j + 4] += mf[i]
    try:
        delta, _, rank, _ = np.linalg.lstsq(jac, -resid, rcond=None)
    except np.linalg.LinAlgError:  # a non-finite frame; the sweep aborts
        return f, True
    if rank < 10:
        return f, True
    return f + delta.reshape(4, 4), False


def project_frame(frame: Frame, kind: FrameKind) -> tuple[Frame, bool]:
    """Public single-frame projection; see _project_matrix.

    Requires every Gram residual entry below 0.1; Newton far from the
    constraint set does more harm than good.
    """
    res = gram_residual(frame, kind)
    if res.max_entry() >= 0.1:
        raise FrameError(
            f"frame too far from Gram constraints to project "
            f"(max residual {res.max_entry():.3g})")
    f, singular = _project_matrix(frame.to_matrix(), kind)
    return Frame.from_matrix(f), singular


def integrate_frame(profile: CurvatureProfile,
                    initial: Optional[Frame] = None,
                    alpha0: Optional[Vec4] = None,
                    h: Optional[float] = None,
                    drift_mode: str = "monitor",
                    validate: bool = True,
                    eps_gram: float = DEFAULT_EPS_GRAM) -> CurveTrace:
    """Integrate the frame equations over the profile domain.

    Grid: s_i = s_min + i*h for i = 0..floor(span/h). Default h is
    1e-3 * span. Raises IntegrationError if Gram drift passes
    1000 * eps_gram, ConfigError for a bad step, FrameError for a bad
    initial frame.
    """
    if drift_mode not in DRIFT_MODES:
        raise ConfigError(f"drift_mode must be one of {DRIFT_MODES}, "
                          f"got {drift_mode!r}")
    if validate:
        profile.validate()
    elif profile.kind is FrameKind.PSEUDO_NULL:
        kappa_dev = np.max(np.abs(
            profile.evaluate_arrays(profile.grid(65))[0] - 1.0))
        if kappa_dev > 1e-9:
            warnings.warn("integrating a pseudo null profile with kappa != 1 "
                          f"(max deviation {kappa_dev:.3g})", stacklevel=2)

    span = profile.span
    if h is None:
        h = DEFAULT_STEP_FRACTION * span
    h = float(h)
    if not (h > 0.0) or not math.isfinite(h):
        raise ConfigError(f"step h must be positive and finite, got {h}")
    if h > span / 10.0:
        raise ConfigError(f"step h = {h} too large for domain span {span}")

    frame0 = canonical_frame(profile.kind) if initial is None else initial
    res0 = gram_residual(frame0, profile.kind)
    if res0.max_entry() > eps_gram:
        raise FrameError(
            f"initial frame Gram residual {res0.max_entry():.3g} exceeds "
            f"eps_gram = {eps_gram:.3g}")
    pos0 = Vec4(0.0, 0.0, 0.0, 0.0) if alpha0 is None else alpha0

    steps = int(math.floor(span / h + 1e-9))
    n = steps + 1
    s = profile.s_min + h * np.arange(n)

    # curvatures on the half-step lattice, then frenet matrices
    s_half = profile.s_min + (h / 2.0) * np.arange(2 * steps + 1)
    kappa, tau, sigma = profile.evaluate_arrays(s_half)
    mats = _frenet_matrices(kappa, tau, sigma, profile.kind)

    positions = np.empty((n, 4))
    frames = np.empty((n, 4, 4))
    positions[0] = pos0.to_array()
    frames[0] = frame0.to_matrix()

    d, q = _rk4_increments(mats, h)
    del mats  # lowers peak memory; only d and q are read from here on
    project = drift_mode == "project"
    warn_count = 0
    f = frames[0]
    # a blown-up run sweeps on past its first bad step; the abort below
    # reports it, so overflow warnings from the later steps are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            f = f + d[i] @ f
            if project:
                f, singular = _project_matrix(f, profile.kind)
                warn_count += singular
            frames[i + 1] = f

        # positions: alpha_{i+1} = alpha_i + q_i F_i, summed in step order
        np.matmul(q[:, None, :], frames[:-1], out=positions[1:, None, :])
        np.cumsum(positions, axis=0, out=positions)

        dev = gram_matrix(frames)
        dev -= gram_targets(profile.kind)
        np.abs(dev, out=dev)
        gram_res = dev.reshape(n, 16).max(axis=1)

    abort_at = ABORT_FACTOR * eps_gram
    past = np.flatnonzero(~(gram_res <= abort_at))
    if past.size:
        i = int(past[0])
        raise IntegrationError(
            f"Gram drift {gram_res[i]:.3g} exceeded {abort_at:.3g} at step "
            f"{i} (s = {s[i]:.6g}); reduce h or check the profile")

    if warn_count:
        log.warning("projection Jacobian was singular at %d steps", warn_count)
    log.debug("integrated %s profile over [%g, %g], %d steps, max drift %.3g",
              profile.kind.value, profile.s_min, profile.s_max, steps,
              float(np.max(gram_res)))
    return CurveTrace(kind=profile.kind, s=s, positions=positions,
                      frames=frames, gram_res=gram_res, h=h, profile=profile,
                      projection_warnings=warn_count)


def _rk4_increments(mats: np.ndarray, h: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Every RK4 step of F' = A F as an increment, F <- F + D_i F.

    mats holds A on the half-step lattice, so step i uses A0 = mats[2i],
    Am = mats[2i+1], A1 = mats[2i+2]. With the stage matrices
    K1 = A0, K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3),
    D_i = h/6 (K1 + 2 K2 + 2 K3 + K4). The position increment is q_i F_i
    with q_i = h e0 + h^2/6 (K1 + K2 + K3)[0], the RK4 weights of the T
    rows of the four stages. Returns (D, q) of shapes (steps, 4, 4) and
    (steps, 4).
    """
    a0, am, a1 = mats[0:-1:2], mats[1::2], mats[2::2]
    k2 = np.matmul(am, a0)
    k2 *= h / 2.0
    k2 += am
    k3 = np.matmul(am, k2)
    k3 *= h / 2.0
    k3 += am
    q = a0[:, 0, :] + k2[:, 0, :] + k3[:, 0, :]
    q *= h * h / 6.0
    q[:, 0] += h
    d = np.matmul(a1, k3)
    d *= h
    d += a1
    d += a0
    k2 += k3
    k2 *= 2.0
    d += k2
    d *= h / 6.0
    return d, q


def _frenet_matrices(kappa, tau, sigma, kind: FrameKind) -> np.ndarray:
    m = np.zeros(kappa.shape + (4, 4))
    if kind is FrameKind.PARTIALLY_NULL:
        m[..., 0, 1] = kappa
        m[..., 1, 0] = -kappa
        m[..., 1, 2] = tau
        m[..., 2, 2] = sigma
        m[..., 3, 1] = -tau
        m[..., 3, 3] = -sigma
    else:
        m[..., 0, 1] = kappa
        m[..., 1, 2] = tau
        m[..., 2, 1] = sigma
        m[..., 2, 3] = -tau
        m[..., 3, 0] = -kappa
        m[..., 3, 2] = -sigma
    return m


def resample_curvatures(trace: CurveTrace
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (kappa, tau, sigma) arrays from a trace.

    Frame derivatives come from grid stencils and are paired against the
    frame vectors the family equations make dual to each coefficient:

        partially null: kappa = g(T', N),  tau = g(N', B2), sigma = g(B1', B2)
        pseudo null:    kappa = g(T', B2), tau = g(N', B1), sigma = g(B1', B2)

    The two points at each end use shifted stencils; treat the interior
    as authoritative.
    """
    if trace.n < 5:
        raise ValueError("trace too short to resample curvatures")
    d = grid_derivative(trace.frames, trace.h, order=1)
    t_p, n_p, b1_p = d[:, 0, :], d[:, 1, :], d[:, 2, :]
    nvec = trace.frame_component(1)
    b1 = trace.frame_component(2)
    b2 = trace.frame_component(3)
    if trace.kind is FrameKind.PARTIALLY_NULL:
        return pairing(t_p, nvec), pairing(n_p, b2), pairing(b1_p, b2)
    return pairing(t_p, b2), pairing(n_p, b1), pairing(b1_p, b2)


CSV_HEADER = ("s,x1,x2,x3,x4,T1,T2,T3,T4,N1,N2,N3,N4,"
              "B11,B12,B13,B14,B21,B22,B23,B24,gram_residual")
_CSV_ROW = ",".join(["%.17g"] * 22) + "\n"


def write_trace_csv(trace: CurveTrace, path) -> None:
    """Write the trace with 17 significant digits, one row per grid point."""
    table = np.empty((trace.n, 22))
    table[:, 0] = trace.s
    table[:, 1:5] = trace.positions
    table[:, 5:21] = trace.frames.reshape(trace.n, 16)
    table[:, 21] = trace.gram_res
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in table:
            fh.write(_CSV_ROW % tuple(row.tolist()))
