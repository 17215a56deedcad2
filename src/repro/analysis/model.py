"""Projected (two-step) vs direct agile numbers, side by side.

The Table IV model itself lives in :mod:`repro.core.costmodel`; this is
the comparison the analysis layer uses to validate the methodology port
(EXPERIMENTS.md, ``experiments.twostep``).
"""


def compare_projection_to_direct(projection, direct_metrics):
    """Put the two-step projection next to a direct agile simulation.

    ``projection`` is the dict from
    :func:`repro.analysis.twostep.two_step_projection`;
    ``direct_metrics`` a RunMetrics from an agile-mode run of the same
    workload. Returns a dict of (projected, direct) pairs.
    """
    return {
        "pw_overhead": (
            projection["projected_pw_overhead"],
            direct_metrics.page_walk_overhead,
        ),
        "vmm_overhead": (
            projection["projected_vmm_overhead"],
            direct_metrics.vmm_overhead,
        ),
        "total_overhead": (
            projection["projected_pw_overhead"] + projection["projected_vmm_overhead"],
            direct_metrics.page_walk_overhead + direct_metrics.vmm_overhead,
        ),
    }
