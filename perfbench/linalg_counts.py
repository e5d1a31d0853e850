"""numpy.linalg calls by function and operand shape for three engines.

    python3 perfbench/linalg_counts.py [--seed S]

Traces one call each of ``seb_solve`` (dense T = X0 B, n = 300, singular B),
``reverse_solve`` (matrix relations, n = 60) and ``quasisimilar_decide``
(a similar pair, n = 28) on inputs the dense and relations workloads draw,
and prints a Markdown table.  The counts depend only on the inputs, so they
repeat on every machine.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

from psdfactor import factor, linrel  # noqa: E402


def cases(seed):
    rng = np.random.default_rng([seed, 99])
    seb = workloads.seb_input(rng, 300, singular=True)
    B = workloads.psd(rng, 60)[0] + 0.2 * np.eye(60)
    M = workloads.psd(rng, 60)[0] + 0.2 * np.eye(60)
    T = np.linalg.solve(B, M)
    qs = workloads.intertwine_input(rng, 28, "similar")
    return [
        ("seb_solve n=300", lambda: factor.seb_solve(seb["T"], seb["B"])),
        ("reverse_solve n=60", lambda: factor.reverse_solve(linrel.rel_from_matrix(T), linrel.rel_from_matrix(B))),
        ("quasisimilar_decide n=28", lambda: factor.quasisimilar_decide(qs["T"], qs["S"])),
    ]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    print("| engine | function | operand shape | calls |")
    print("|---|---|---|---|")
    for label, call in cases(args.seed):
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            call()
        finally:
            tracer.active = False
            tracer.uninstall()
        for (fname, shape), n in sorted(tracer.shapes.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            print(f"| {label} | {fname} | {'x'.join(map(str, shape))} | {n} |")
        print(f"| {label} | **total** | | {sum(tracer.shapes.values())} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
