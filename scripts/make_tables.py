#!/usr/bin/env python3
"""Produce the four shipped convergence tables as CSV files.

    energy       smooth problem, gamma 1, energy norms, levels 0-4
    l2           smooth problem, gamma 1, L2 norms, levels 0-5
    small-gamma  smooth problem, gamma 0.01, levels 0-4
    singular     singular-data problem vs level-7 reference, levels 0-4

The singular study solves (or reuses from the cache) a 131072-element
reference once; everything else takes a second or two.
"""

import dataclasses
import os
import sys
import time

from dbcfem import load_config, run_convergence
from dbcfem.cli import Parser


def build_specs():
    smooth = load_config("example1")
    return {
        "energy": smooth,
        "l2": dataclasses.replace(
            smooth, levels=(0, 1, 2, 3, 4, 5),
            columns=(("l2_y", True), ("l2_z", True))),
        "small-gamma": dataclasses.replace(
            smooth, gamma=0.01,
            columns=(("l2_y", True), ("h1_z", True), ("l2_u", True))),
        "singular": load_config("example2"),
    }


def write_tables(specs, names, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        spec = specs[name]
        t0 = time.perf_counter()
        report, _ = run_convergence(spec)
        path = os.path.join(out_dir, "%s.csv" % name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_csv())
        print("# %s (gamma=%g, degree=%d, %.1fs) -> %s"
              % (name, spec.gamma, spec.degree,
                 time.perf_counter() - t0, path))
        sys.stdout.write(report.to_csv())
    return 0


def main(argv=None):
    specs = build_specs()
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="tables",
                        help="directory for the CSV files (default: tables)")
    parser.add_argument("--table", action="append", choices=sorted(specs),
                        help="restrict to one table (repeatable; "
                             "default: all four)")
    args = parser.parse_args(argv)
    return parser.run(lambda: write_tables(
        specs, args.table or sorted(specs), args.out_dir))


if __name__ == "__main__":
    sys.exit(main())
