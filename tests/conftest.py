ACCEPTANCE_RESULTS = []


def record_criterion(number: int, description: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, description, ok, detail))
    assert ok, f"criterion {number} ({description}): {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, description, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {number}] {status} {description}: {detail}")


def reference_sequential_paths(hrw, T, x, y, rng, m):
    """The former per-site sequential bridge sampler with per-sample endpoints
    x, y (S,): one ``rng.uniform(size=S)`` call per site.  A test oracle for
    the streams and values of the batched samplers."""
    import numpy as np

    from gibbslines.bridge import _conditional_grid, _step_density_cached
    from gibbslines.errors import PrecisionError
    from gibbslines.grids import inverse_cdf_rows

    S = x.size
    paths = np.empty((S, T + 1))
    paths[:, 0] = x
    paths[:, T] = y
    if T == 1:
        return paths
    s_lo, s_hi = hrw.support()
    prev = paths[:, 0]
    for j in range(1, T):
        g_rem = _step_density_cached(hrw, T - j, m)
        grids = _conditional_grid(prev + s_lo, prev + s_hi, y - g_rem.hi, y - g_rem.lo, m)
        log_pdf = hrw.log_g(grids - prev[:, None]) + g_rem.log_pdf(y[:, None] - grids)
        peak = log_pdf.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(peak)):
            raise PrecisionError("sequential conditional underflowed")
        with np.errstate(under="ignore"):
            pdf = np.exp(log_pdf - peak)
        prev = inverse_cdf_rows(grids, pdf, rng.uniform(size=S))
        paths[:, j] = prev
    return paths
