"""Output checks that do not rely on a solver's own convergence flag.

Every check returns ``None`` when the output is right and a one-line
reason otherwise. Tolerances are relative to the scale of the data, so a
check judges an answer in the data's own units.
"""

from __future__ import annotations

import numpy as np

ALPHA_TOL = 1e-8  # level recovered from an analytic root
DISPLAY_RTOL = 1e-9  # verbatim bivariate displays, relative to the mean scale
CERT_RTOL = 1e-8  # empirical optimality certificates, relative to the data scale


def data_scale(rows, pi) -> float:
    """Scale of a residual for this data: largest column spread times the
    largest weight. Residuals are linear in the data, so dividing by this
    makes a certificate independent of units and origin."""
    return float(np.max(np.std(rows, axis=0)) * np.max(pi))


def subgradient_gap(x, rows, pi, alpha) -> float:
    """Distance of 0 from the subdifferential box of the empirical matrix
    score at ``x``; 0 exactly at a minimizer.

    Component k of the residual is the mean over rows of
    sum_i pi_ki (alpha (X_i-x_i)+ 1{X_k>x_k} - (1-alpha) (x_i-X_i)+ 1{X_k<x_k});
    rows tying x_k widen it to an interval.
    """
    diff = rows - np.asarray(x, dtype=float)
    gain = np.maximum(diff, 0.0) @ pi
    loss = np.maximum(-diff, 0.0) @ pi
    res = np.mean(alpha * gain * (diff > 0.0) - (1.0 - alpha) * loss * (diff < 0.0), axis=0)
    tied = diff == 0.0
    lo = res - (1.0 - alpha) * np.mean(loss * tied, axis=0)
    hi = res + alpha * np.mean(gain * tied, axis=0)
    return float(np.max(np.maximum(lo, 0.0) + np.maximum(-hi, 0.0)))


def lp_gradient(x, rows, p, alpha) -> np.ndarray:
    """Gradient of the empirical L^p score
    mean(alpha ||(X-x)+||_p^2 + (1-alpha) ||(X-x)-||_p^2)."""
    diff = rows - np.asarray(x, dtype=float)
    out = np.zeros(rows.shape[1])
    for part, sign, weight in ((np.maximum(diff, 0.0), -1.0, alpha),
                               (np.maximum(-diff, 0.0), 1.0, 1.0 - alpha)):
        norm = np.sum(part**p, axis=1) ** (1.0 / p)
        live = norm > 0.0
        coef = np.zeros_like(norm)
        coef[live] = norm[live] ** (2.0 - p)
        out += sign * 2.0 * weight * np.mean(coef[:, None] * part ** (p - 1.0), axis=0)
    return out


def flag(result) -> str | None:
    if not result.converged:
        return f"solver reports converged=False (residual {result.residual_norm:.3e})"
    if not np.all(np.isfinite(result.point)):
        return "non-finite point"
    return None


def empirical(result, rows, pi, alpha) -> str | None:
    reason = flag(result)
    if reason:
        return reason
    gap = subgradient_gap(result.point, rows, pi, alpha)
    scale = data_scale(rows, pi)
    if not gap <= CERT_RTOL * scale:
        return f"certificate gap {gap:.3e} exceeds {CERT_RTOL:g} x data scale {scale:.3e}"
    return None


def lp(result, rows, p, alpha) -> str | None:
    reason = flag(result)
    if reason:
        return reason
    grad = float(np.max(np.abs(lp_gradient(result.point, rows, p, alpha)))) / 2.0
    scale = data_scale(rows, np.ones(1))
    if not grad <= CERT_RTOL * scale:
        return f"L^p gradient {grad:.3e} exceeds {CERT_RTOL:g} x data scale {scale:.3e}"
    return None


def level_recovered(recovered, alpha) -> str | None:
    err = float(np.max(np.abs(np.asarray(recovered) - alpha)))
    if not err <= ALPHA_TOL:
        return f"alpha_of_point is off by {err:.3e}"
    return None


def display_zero(left, right, scale) -> str | None:
    err = float(np.max(np.abs(np.asarray(left) - np.asarray(right))))
    if not err <= DISPLAY_RTOL * scale:
        return f"verbatim display residual {err:.3e} exceeds {DISPLAY_RTOL:g} x scale {scale:.3e}"
    return None


def relative_error(point, oracle) -> float:
    point = np.asarray(point, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    return float(np.max(np.abs(point - oracle) / np.abs(oracle)))


def close_to_oracle(point, oracle, tol) -> str | None:
    err = relative_error(point, oracle)
    if not err <= tol:
        return f"relative error {err:.3e} against the Newton oracle exceeds {tol:g}"
    return None
