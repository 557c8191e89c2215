"""Monte Carlo oracles for the window acceptance probability Z.

Z is the mean Boltzmann weight of independent free bridges.  The runtime
computes it exactly by a transfer sweep (``gibbs.acceptance_probability``);
these estimators average the weight over sampled free-bridge ensembles and
are the independent checks of that sweep:

- ``mc_acceptance`` draws the free bridges with the runtime's grid sampler;
- ``tilted_acceptance`` draws free walks of exponentially tilted log-gamma
  increments from numpy's gamma generator alone and reweights them.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import digamma

from gibbslines import gibbs as gb
from gibbslines.bridge import SAMPLER_GRID_M, HrwSpec

CHUNK = 10_000  # draws per sampler call: bounds the (k * draws, m) site grids
WALK_CHUNK = 100_000  # tilted walks per batch: bounds the (draws, k, T+1) curves


def mc_acceptance(spec, n_mc, rng, m=SAMPLER_GRID_M):
    """(estimate, standard error) of Z from ``n_mc`` free-bridge ensembles.

    Reads one (k, T-1, n_mc) uniform block from ``rng``; draw s is driven by
    ``u[:, :, s]`` whatever the chunking.
    """
    u = rng.uniform(size=(spec.n_curves, spec.b - spec.a - 1, n_mc))
    f, g = np.asarray(spec.f, dtype=float), np.asarray(spec.g, dtype=float)
    w = np.empty(n_mc)
    for start in range(0, n_mc, CHUNK):
        part = u[:, :, start : start + CHUNK]
        curves = gb._free_bridge_batch(spec.hrw, spec.a, spec.b, spec.x_vec, spec.y_vec, part, m)
        with np.errstate(under="ignore"):
            w[start : start + CHUNK] = np.exp(
                gb._log_weight_batch(spec.interaction, spec.a, spec.b, curves, f, g)
            )
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(n_mc))


def tilted_theta(slope):
    """The theta' whose increment -log Gamma(theta') has mean ``slope``: the
    root of psi(theta') = -slope."""
    return brentq(lambda t: digamma(t) + slope, 1e-12, 1e12, xtol=1e-14, rtol=1e-15)


def tilted_acceptance(spec, n, rng):
    """(estimate, standard error, bridge SD of the weight) of Z from ``n``
    exponentially tilted free walks (log-gamma increments only).

    Tilting G by e^(lambda x) turns the increment -log Gamma(theta) into
    -log Gamma(theta - lambda); on a bridge the tilt contributes the constant
    e^(lambda (y - x)), so the bridge law is the same for every tilt.  Curve i
    takes theta'_i with mean increment (y_i - x_i)/T, walks T-1 steps from x_i
    and is pinned at y_i; its importance weight is the tilted density of that
    last increment.  The estimate is self-normalised.  The bridge SD of the
    weight divided by sqrt(N) is the standard error of N exact free-bridge
    draws (``mc_acceptance``).
    """
    if spec.hrw.kind != "log-gamma":
        raise ValueError("the tilted oracle needs log-gamma increments")
    k, T = spec.n_curves, spec.b - spec.a
    x, y = np.asarray(spec.x_vec), np.asarray(spec.y_vec)
    f, g = np.asarray(spec.f, dtype=float), np.asarray(spec.g, dtype=float)
    tilts = [tilted_theta((y[i] - x[i]) / T) for i in range(k)]
    sums = np.zeros(6)  # q, q w, q w^2, q^2, q^2 w, q^2 w^2
    for start in range(0, n, WALK_CHUNK):
        size = min(WALK_CHUNK, n - start)
        curves = np.empty((size, k, T + 1))
        log_q = np.zeros(size)
        for i, theta in enumerate(tilts):
            curves[:, i, 0] = x[i]
            curves[:, i, T] = y[i]
            steps = -np.log(rng.gamma(theta, size=(size, T - 1)))
            curves[:, i, 1:T] = x[i] + np.cumsum(steps, axis=1)
            log_q += HrwSpec.log_gamma(theta).log_g(y[i] - curves[:, i, T - 1])
        with np.errstate(under="ignore"):
            q = np.exp(log_q)
            w = np.exp(gb._log_weight_batch(spec.interaction, spec.a, spec.b, curves, f, g))
        sums += [q.sum(), (q * w).sum(), (q * w * w).sum(),
                 (q * q).sum(), (q * q * w).sum(), (q * q * w * w).sum()]
    s_q, s_qw, s_qww, s_qq, s_qqw, s_qqww = sums
    est = s_qw / s_q
    var = (s_qqww - 2.0 * est * s_qqw + est * est * s_qq) / s_q**2  # delta method
    sd_w = math.sqrt(max(s_qww / s_q - est * est, 0.0))
    return float(est), math.sqrt(max(var, 0.0)), sd_w
