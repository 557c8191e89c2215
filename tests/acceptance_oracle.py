"""Monte Carlo oracle for the window acceptance probability Z.

Z is the mean Boltzmann weight of independent free bridges.  The runtime
computes it exactly by a transfer sweep (``gibbs.acceptance_probability``);
this estimator averages the weight over sampled free-bridge ensembles and is
the independent check of that sweep.
"""

import math

import numpy as np

from gibbslines import gibbs as gb
from gibbslines.bridge import SAMPLER_GRID_M

CHUNK = 10_000  # draws per sampler call: bounds the (draws, m) site grids


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
