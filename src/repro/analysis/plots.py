"""ASCII rendering of the paper's figures.

No plotting library is assumed: Figure 5 renders as horizontal stacked
bars (``#`` for page-walk overhead, ``%`` for VMM overhead), one group
per workload — close enough to the paper's stacked-bar layout to eyeball
the shape in a terminal or a text report.
"""

CONFIG_ORDER = ("B", "N", "S", "A")
MODE_TO_LABEL = {"native": "B", "nested": "N", "shadow": "S", "agile": "A",
                 "shsp": "H"}


def render_figure5(results, page_size_name="4K", width=60, max_overhead=None):
    """Render one page-size slice of Figure 5 as ASCII bars.

    ``results`` is the dict from
    :func:`repro.analysis.experiments.figure5`:
    {workload: {(page_size_name, mode): RunMetrics}}.
    """
    bars = []
    for name, configs in results.items():
        for (size, mode), metrics in configs.items():
            if size != page_size_name:
                continue
            bars.append((name, MODE_TO_LABEL.get(mode, mode[:1].upper()),
                         metrics.page_walk_overhead, metrics.vmm_overhead))
    if not bars:
        return "(no data for page size %s)" % page_size_name
    peak = max_overhead or max(pw + vm for _n, _m, pw, vm in bars) or 1.0
    scale = width / peak
    lines = [
        "Figure 5 (%s pages)  #=page-walk  %%=VMM  (full width = %.0f%%)"
        % (page_size_name, 100 * peak)
    ]
    last_name = None
    order = {label: i for i, label in enumerate(("B", "N", "S", "H", "A"))}
    for name, label, pw, vm in sorted(
            bars, key=lambda b: (b[0], order.get(b[1], 9))):
        if name != last_name:
            lines.append("")
            lines.append(name)
            last_name = name
        walk_cells = int(round(pw * scale))
        vmm_cells = int(round(vm * scale))
        bar = "#" * walk_cells + "%" * vmm_cells
        lines.append("  %s |%-*s| %5.1f%%" % (label, width, bar[:width],
                                              100 * (pw + vm)))
    return "\n".join(lines)
