"""Memory guard: no check job of `--suite all` at grid 8192 holds more
than one Liouville solve's worth of arrays at its peak.

Every job's peak is traced above the level before it and compared with
the peak of one cold (4,2) solve at c = 25 on a warm grid cache.  The
sweeps and families reach that bound only because they stream their
members: a check that first built its whole member list would hold
every profile at once.  Measured ratios (tracemalloc; Python 3.11,
numpy 2.4), list-building checks -> streaming checks:

    liouville _smallness (2,1), 12 members   2.105 -> 1.005
    liouville _smallness (4,2), 4 members    1.301 -> 1.002
    bm bm_exp_check (the larger of two)      1.251 -> 0.452
    liouville _classify_divergence           1.151 -> 0.962
    liouville _classify_concentration        1.114 -> 0.412
    liouville _classify_bounded              1.001 -> 1.001
"""

import tracemalloc

import numpy as np

from hessianlab import liouville, suites
from hessianlab.core import HessianDim

BOUND = 1.1


def _peak_mb(fn) -> float:
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn()
    return (tracemalloc.get_traced_memory()[1] - base) / 1e6


def test_no_job_peaks_above_one_cold_solve():
    cfg = suites.config_from_sources(None, {"suite": "all", "grid_n": 8192})
    jobs = [(name, job) for name in suites._BUILDERS for job in suites._BUILDERS[name](cfg, soft=True)]
    prob = liouville.LiouvilleProblem(HessianDim(4, 2), lambda r: np.full_like(r, 25.0), grid_n=8192)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        _peak_mb(lambda: liouville.solve_liouville(prob))  # fills the grid cache
        solve = _peak_mb(lambda: liouville.solve_liouville(prob))
        ratios = {f"{name} {job.func.__name__}[{i}]": _peak_mb(job) / solve for i, (name, job) in enumerate(jobs)}
    finally:
        if started:
            tracemalloc.stop()
    assert {label: round(r, 3) for label, r in ratios.items() if r > BOUND} == {}
