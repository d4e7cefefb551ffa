"""Single-case oracle steps that the tests compare the library against.

fd_derivatives differences plain steering vectors at absolute phases, with
none of the rebased frame or stacked shifts of oracle._fd_rebased, so it
stays an independent reference for the analytic derivatives. bounds_from
inverts the projected Fisher information of one steering vector and its
derivatives, through the same oracle._projected and crb._bound_pair that
oracle._validate runs over a whole group.
"""

import numpy as np

from modcrb import CrbPair, ModularLayout, SensingSnr, TargetPolar, WavefrontModel, steering
from modcrb.crb import _bound_pair, _Cases, _Quadratic
from modcrb.oracle import _projected


def fd_derivatives(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    h_r: float | None = None,
    h_theta: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference (d_r, d_theta) of the steering vector.

    The steps default to h_r = max(1e-4, 1e-7 r) and h_theta = 1e-4. Each
    difference is divided by the spacing the floats actually realize around
    the target.

    Raises:
        ValueError: On a step that is not positive, or r - h_r <= 0.
    """
    r, theta = target.r, target.theta
    if h_r is None:
        h_r = max(1e-4, 1e-7 * r)
    if h_theta is None:
        h_theta = 1e-4
    if h_r <= 0 or h_theta <= 0:
        raise ValueError(f"steps must be positive, got h_r={h_r}, h_theta={h_theta}")
    r_hi, r_lo = r + h_r, r - h_r
    if r_lo <= 0:
        raise ValueError(f"range step {h_r} too large for target range {r}")
    t_hi, t_lo = theta + h_theta, theta - h_theta

    def g_at(rr: float, tt: float) -> np.ndarray:
        return steering(model, layout, TargetPolar(rr, tt), wavelength)

    d_r = (g_at(r_hi, theta) - g_at(r_lo, theta)) / (r_hi - r_lo)
    d_t = (g_at(r, t_hi) - g_at(r, t_lo)) / (t_hi - t_lo)
    return d_r, d_t


def bounds_from(
    g: np.ndarray,
    d_r: np.ndarray,
    d_t: np.ndarray,
    snr: SensingSnr,
    model: WavefrontModel | None = None,
    cos_theta: float | None = None,
) -> CrbPair:
    """Bounds of one steering vector g and its derivatives d_r, d_t.

    The range derivative should be in the reference-path frame (as
    oracle._fd_rebased and wavefront._wavefront give it): the raw one's
    2 pi / lambda part leaves the bounds alone but inflates the degeneracy
    scale |dg_r|^2 until well-conditioned range information reads as
    degenerate. Without cos_theta no result is treated as endfire.
    """
    sums = _projected(g, d_r, d_t, _Cases(np.zeros(len(g), dtype=np.int64)))
    return _bound_pair(model, 0.5 / snr.gamma, _Quadratic(*sums[:, 0]), cos_theta).pair()
