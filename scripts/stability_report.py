#!/usr/bin/env python3
"""Print the discrete stability sequences over a range of levels.

For each preset and each regularization weight, solves the coupled
system and reports the two quantities that the a-priori bound says must
stay level-independent: the weighted state norm

    gamma^(1/2) * ||y_h||_boundary + ||y_h||

and the trace seminorm |y_h|_{1/2}.  A sequence that drifts with h
means the discrete bound is losing its constant, so the max/min spread
per sequence is printed alongside.
"""

import dataclasses
import sys

from dbcfem import load_config, solve_level, verify_discrete_stability
from dbcfem.cli import Parser
from dbcfem.problems import check_level


def report(first, last, gammas):
    """Print both sequences for each preset and weight, once the check
    of a config's levels has admitted FIRST and LAST for every spec."""
    specs = [dataclasses.replace(load_config(preset), gamma=gamma)
             for preset in ("example1", "example2") for gamma in gammas]
    for spec in specs:
        check_level("--levels", first, spec)
        check_level("--levels", last, spec)
    for spec in specs:
        states, traces = [], []
        print("%s  gamma=%g" % (spec.name, spec.gamma))
        print("  level   state norm   trace seminorm")
        for level in range(first, last + 1):
            sol = solve_level(spec, level)
            state, trace = verify_discrete_stability(sol.y, spec.gamma)
            states.append(state)
            traces.append(trace)
            print("  %5d   %10.6f   %14.6f" % (level, state, trace))
        print("  spread  %10.6f   %14.6f"
              % (max(states) / min(states), max(traces) / min(traces)))
        print()
    return 0


def main(argv=None):
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, nargs=2, default=(2, 6),
                        metavar=("FIRST", "LAST"),
                        help="inclusive level range (default: 2 6)")
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=(1.0, 0.01),
                        help="regularization weights (default: 1.0 0.01)")
    args = parser.parse_args(argv)
    first, last = args.levels
    if last < first:
        parser.error("--levels must satisfy FIRST <= LAST")
    return parser.run(lambda: report(first, last, args.gammas))


if __name__ == "__main__":
    sys.exit(main())
