#!/usr/bin/env python3
"""Render per-cell throughput trends across an ordered series of snapshots.

Takes two or more BENCH_*.json / bench_out.json files (scripts/run_bench.sh
output) in chronological order and prints one row per grid cell with that
cell's spread-time throughput (trials / elapsed_seconds) in each snapshot,
plus the last/first ratio where both endpoints measured the cell. Cells are
identified by the same work-identifying manifest fields compare_bench.py
gates on, so a cell tracks through snapshots that added or dropped manifest
columns (threads, backend, shards, ...) along the way; a snapshot that did not
measure a cell shows "-".

A cell whose newest measurement dropped more than --threshold (default 25%)
below the previous snapshot that measured it gets a REGRESSED annotation
naming both, so a scan of the checked-in BENCH history spots the snapshot
that lost a cell's throughput without diffing files pairwise.

Unlike compare_bench.py this never fails on regressions: it is a reporting
tool, meant for eyeballing how each cell's throughput evolved across the
checked-in BENCH history plus a fresh CI measurement, e.g.:

  python3 scripts/bench_trend.py BENCH_*.json bench_out.json

--self-test renders a synthetic history and asserts the annotation logic,
so CI can prove the tool itself works without real snapshots.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare_bench import load_summaries  # noqa: E402


def render(snapshots, threshold=0.25):
    """snapshots: ordered [(name, cells)] as loaded by load_summaries."""
    cells = {}  # key -> label, in first-seen (chronological) order
    for _, cols in snapshots:
        for key, cell in cols.items():
            cells.setdefault(key, cell["label"])

    name_w = max([len("cell")] + [len(label) for label in cells.values()])
    col_w = max([12] + [len(name) for name, _ in snapshots])
    header = "%-*s" % (name_w, "cell")
    for name, _ in snapshots:
        header += "  %*s" % (col_w, name)
    header += "  %10s" % "last/first"
    lines = [header]

    for key, label in cells.items():
        row = "%-*s" % (name_w, label)
        measured = []  # (snapshot name, throughput) where the cell appeared
        for name, cols in snapshots:
            if key in cols:
                tps = cols[key]["throughput"]
                measured.append((name, tps))
                row += "  %*.2f" % (col_w, tps)
            else:
                row += "  %*s" % (col_w, "-")
        ratio = ("%.3f" % (measured[-1][1] / measured[0][1])
                 if len(measured) >= 2 else "-")
        row += "  %10s" % ratio
        # Annotate only when the cell's newest measurement is in the newest
        # snapshot: a cell that stopped being measured has no current value
        # to regress.
        if (len(measured) >= 2 and measured[-1][0] == snapshots[-1][0]):
            prev_name, prev = measured[-2]
            last = measured[-1][1]
            if prev > 0 and last < (1.0 - threshold) * prev:
                row += "  REGRESSED -%d%% vs %s" % (
                    round(100.0 * (1.0 - last / prev)), prev_name)
        lines.append(row)
    return lines


def self_test():
    def cell(label, tps):
        return {"label": label, "throughput": tps}

    old = {
        "k_stable": cell("stable_cell", 100.0),
        "k_regressed": cell("regressed_cell", 100.0),
        "k_borderline": cell("borderline_cell", 100.0),
        "k_retired": cell("retired_cell", 100.0),
    }
    new = {
        "k_stable": cell("stable_cell", 102.0),
        "k_regressed": cell("regressed_cell", 60.0),
        "k_borderline": cell("borderline_cell", 76.0),  # -24%: inside threshold
        "k_new": cell("new_cell", 50.0),
    }
    lines = render([("OLD.json", old), ("NEW.json", new)], threshold=0.25)
    by_label = {line.split()[0]: line for line in lines[1:]}

    assert "REGRESSED -40% vs OLD.json" in by_label["regressed_cell"], \
        "a 40%% drop must be annotated: %r" % by_label["regressed_cell"]
    for label in ("stable_cell", "borderline_cell", "retired_cell", "new_cell"):
        assert "REGRESSED" not in by_label[label], \
            "%s must not be annotated: %r" % (label, by_label[label])
    assert by_label["retired_cell"].rstrip().endswith("-"), \
        "a cell measured once has no ratio: %r" % by_label["retired_cell"]

    # Tighter threshold flips the borderline cell.
    lines = render([("OLD.json", old), ("NEW.json", new)], threshold=0.20)
    by_label = {line.split()[0]: line for line in lines[1:]}
    assert "REGRESSED -24% vs OLD.json" in by_label["borderline_cell"]

    print("bench_trend.py self-test OK (regression annotation over a "
          "synthetic 2-snapshot history)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshots", nargs="*",
                        help="BENCH_*.json files, oldest first")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional drop vs the previous measurement that "
                             "earns a REGRESSED annotation (default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in annotation self-test and exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.snapshots:
        parser.error("need at least one snapshot (or --self-test)")
    missing = [p for p in args.snapshots if not os.path.exists(p)]
    if missing:
        parser.error("no such snapshot: %s" % ", ".join(missing))
    loaded = [(os.path.basename(p), load_summaries(p)) for p in args.snapshots]
    print("\n".join(render(loaded, args.threshold)))


if __name__ == "__main__":
    main()
