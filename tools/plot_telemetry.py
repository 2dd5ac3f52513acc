#!/usr/bin/env python3
"""Render the telemetry artifacts written by `campaign telemetry` (or any
Telemetry exporter run -- docs/OBSERVABILITY.md).

usage: plot_telemetry.py DIR [--out OUTDIR]

DIR must hold stalls.csv and links.csv, and may hold timeseries.json
(samples plus fault markers), as written by the exporters. With
matplotlib installed this renders PNGs into OUTDIR (default: DIR): a
per-router stall-mix heatmap (one panel per stall class), a per-link
load heatmap, and the time series with fault markers.
Without matplotlib it falls back to ASCII heatmaps and a sparkline on
stdout -- same data, no dependency to install.
"""

import csv
import json
import os
import sys

STALL_CLASSES = ["buffer_empty", "no_free_vc", "no_credit", "lost_sa",
                 "lost_va"]
LINK_PORTS = ["east", "west", "north", "south", "local"]


def load_grid_csv(path, value_cols):
    """Rows of node,x,y,<value_cols> -> (kx, ky, {col: {(x, y): value}})."""
    grids = {c: {} for c in value_cols}
    kx = ky = 0
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            x, y = int(row["x"]), int(row["y"])
            kx, ky = max(kx, x + 1), max(ky, y + 1)
            for c in value_cols:
                grids[c][(x, y)] = int(row[c])
    return kx, ky, grids


def load_timeseries(path):
    """timeseries.json -> (samples, fault markers), each a list of dicts."""
    with open(path) as f:
        ts = json.load(f)
    return ts["samples"], ts["faults"]


# ---------------------------------------------------------------------------
# Text fallback.

SHADES = " .:-=+*#%@"


def ascii_heatmap(kx, ky, grid, title):
    print(f"\n{title}")
    peak = max(grid.values(), default=0)
    if peak == 0:
        print("  (all zero)")
        return
    # y increases upward (mesh coordinates), so print top row first.
    for y in range(ky - 1, -1, -1):
        row = ""
        for x in range(kx):
            v = grid.get((x, y), 0)
            row += SHADES[min(len(SHADES) - 1, v * (len(SHADES) - 1) // peak)]
        print(f"  y={y:<2d} {row}")
    print(f"       peak={peak}")


def sparkline(values):
    peak = max(values, default=0)
    if peak == 0:
        return "(flat)"
    return "".join(
        SHADES[min(len(SHADES) - 1, v * (len(SHADES) - 1) // peak)]
        for v in values)


def render_text(kx, ky, stalls, links, samples, faults):
    totals = {c: sum(stalls[c].values()) for c in STALL_CLASSES}
    print("stall attribution (non-productive busy-VC cycles, by class):")
    for c in STALL_CLASSES:
        print(f"  {c:<14s} {totals[c]:>12d}")
    combined = {}
    for c in STALL_CLASSES:
        for xy, v in stalls[c].items():
            combined[xy] = combined.get(xy, 0) + v
    ascii_heatmap(kx, ky, combined, "per-router total stalls")
    for c in STALL_CLASSES:
        if totals[c] > 0:
            ascii_heatmap(kx, ky, stalls[c], f"per-router {c}")

    mesh_load = {}
    for p in ("east", "west", "north", "south"):
        for xy, v in links[p].items():
            mesh_load[xy] = mesh_load.get(xy, 0) + v
    ascii_heatmap(kx, ky, mesh_load, "per-router mesh-link flits (E+W+N+S)")
    ascii_heatmap(kx, ky, links["local"], "per-router ejection flits")

    if samples:
        delivered = [s["delivered_flits"] for s in samples]
        deltas = [b - a for a, b in zip(delivered, delivered[1:])]
        print("\ndelivered flits per sample interval:")
        print("  " + sparkline(deltas))
        open_pkts = [s["open_packets"] for s in samples]
        print("open packets:")
        print("  " + sparkline(open_pkts))
        for fl in faults:
            print(f"  fault @ cycle {fl['cycle']}: {fl['kind']} "
                  f"{fl['a']}-{fl['b']}")


# ---------------------------------------------------------------------------
# matplotlib rendering.

def render_png(kx, ky, stalls, links, samples, faults, outdir, plt):
    def grid_array(grid):
        return [[grid.get((x, y), 0) for x in range(kx)]
                for y in range(ky)]

    fig, axes = plt.subplots(1, len(STALL_CLASSES),
                             figsize=(4 * len(STALL_CLASSES), 4))
    for ax, c in zip(axes, STALL_CLASSES):
        im = ax.imshow(grid_array(stalls[c]), origin="lower",
                       cmap="inferno")
        ax.set_title(c)
        fig.colorbar(im, ax=ax, shrink=0.7)
    fig.suptitle("per-router stall attribution (cycles)")
    fig.tight_layout()
    path = os.path.join(outdir, "stalls_heatmap.png")
    fig.savefig(path, dpi=120)
    print(f"wrote {path}")

    fig, axes = plt.subplots(1, len(LINK_PORTS),
                             figsize=(4 * len(LINK_PORTS), 4))
    for ax, p in zip(axes, LINK_PORTS):
        im = ax.imshow(grid_array(links[p]), origin="lower", cmap="viridis")
        ax.set_title(f"{p} link flits")
        fig.colorbar(im, ax=ax, shrink=0.7)
    fig.suptitle("per-link load")
    fig.tight_layout()
    path = os.path.join(outdir, "links_heatmap.png")
    fig.savefig(path, dpi=120)
    print(f"wrote {path}")

    if samples:
        cycles = [s["cycle"] for s in samples]
        fig, ax = plt.subplots(figsize=(10, 5))
        ax.plot(cycles, [s["injected_flits"] for s in samples],
                label="injected flits")
        ax.plot(cycles, [s["delivered_flits"] for s in samples],
                label="delivered flits")
        ax2 = ax.twinx()
        ax2.plot(cycles, [s["open_packets"] for s in samples], "g--",
                 label="open packets")
        for fl in faults:
            ax.axvline(fl["cycle"], color="r", linestyle=":",
                       label=f"{fl['kind']} {fl['a']}-{fl['b']}")
        ax.set_xlabel("cycle")
        ax.legend(loc="upper left")
        ax2.legend(loc="lower right")
        fig.tight_layout()
        path = os.path.join(outdir, "timeseries.png")
        fig.savefig(path, dpi=120)
        print(f"wrote {path}")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 1 or "--help" in argv or "-h" in argv:
        print(__doc__.strip())
        return 2
    indir = args[0]
    outdir = indir
    if "--out" in argv:
        outdir = argv[argv.index("--out") + 1]
        os.makedirs(outdir, exist_ok=True)

    stalls_path = os.path.join(indir, "stalls.csv")
    links_path = os.path.join(indir, "links.csv")
    ts_path = os.path.join(indir, "timeseries.json")
    for p in (stalls_path, links_path):
        if not os.path.exists(p):
            print(f"missing {p} (run `campaign telemetry --out-dir {indir}` "
                  "first)", file=sys.stderr)
            return 1

    kx, ky, stalls = load_grid_csv(stalls_path, STALL_CLASSES)
    _, _, links = load_grid_csv(links_path, LINK_PORTS)
    samples, faults = ([], [])
    if os.path.exists(ts_path):
        samples, faults = load_timeseries(ts_path)

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available: text rendering\n")
        render_text(kx, ky, stalls, links, samples, faults)
        return 0
    render_png(kx, ky, stalls, links, samples, faults, outdir, plt)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
