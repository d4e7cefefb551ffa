"""Single-case oracle steps that the tests compare the library against.

fd_derivatives differences plain steering vectors at absolute phases, with
none of the rebased frame or stacked shifts of oracle._fd_rebased, so it
stays an independent reference for the analytic derivatives. bounds_from
inverts the projected Fisher information of one complex steering vector and
its derivatives, projected against that vector itself, with none of the
unit frame or real parts of oracle._projected; only the inversion,
crb._bound_pair, is the library's. group_reports and without_slots read a
group's results as a list of reports and as antennas alone.
"""

import numpy as np

from modcrb import CrbPair, ModularLayout, SensingSnr, TargetPolar, WavefrontModel, steering
from modcrb.crb import _bound_pair, _Quadratic
from modcrb.oracle import _check_group


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
    model: WavefrontModel,
    cos_theta: float,
) -> CrbPair:
    """Bounds of one steering vector g and its derivatives d_r, d_t.

    A plain complex projection against g: with the residuals
    e_u = d_u - (g^H d_u / |g|^2) g, A_uv = Re(e_u^H e_v), which is
    Re(d_u^H d_v - (d_u^H g)(g^H d_v) / |g|^2), and the scales |d_u|^2.
    The range derivative should be in the reference-path frame (as
    oracle._fd_rebased gives it): the raw one's 2 pi / lambda part leaves
    the bounds alone but inflates the degeneracy scale |d_r|^2 until
    well-conditioned range information reads as degenerate.
    """
    n2_g = np.vdot(g, g).real
    e_r, e_t = (d - (np.vdot(g, d) / n2_g) * g for d in (d_r, d_t))
    quad = _Quadratic(*(np.vdot(a, b).real for a, b in
                        ((e_r, e_r), (e_t, e_t), (e_r, e_t), (d_r, d_r), (d_t, d_t))))
    return _bound_pair(model, 0.5 / snr.gamma, quad, cos_theta).pair()


def group_reports(models, cases):
    """Every ValidationReport of a group, case-major, as verify_batch would build them."""
    check = _check_group(models, cases)
    return [check.report(i, c) for c in range(len(cases)) for i in range(len(models))]


def without_slots(values: np.ndarray, ants) -> np.ndarray:
    """values over the entries of a wavefront._Antennas with each case's slot taken out."""
    return np.delete(values, ants.cases.first, axis=-1)
