#!/usr/bin/env python3
"""Write the chained Rosenbrock problem file at ``n`` variables.

    min  sum_{i<n-1} 100*(x_{i+1} - x_i^2)^2 + (1 - x_i)^2
    s.t. sum_i x_i^2 <= n - 0.5,  x in [-2, 2]^n

The constrained form (``chainN``) keeps the row and is run at 3/3 with
factor 0.5 and ``max_iters`` 60; ``--free`` drops it, the row-free form
(``freeN``), run at 4/4 with factor 0.92.  ``chain.py 5`` writes
``scripts/chain5.prob`` byte for byte.  The file goes to standard output,
or to ``--out``.

Usage, from anywhere:
    python3 scripts/chain.py N [--free] [--out FILE]
    sppa solve --problem FILE --initial-n-pieces 3 --n-pieces 3
"""

import argparse
import sys


def chain_text(n: int, free: bool = False) -> str:
    """The problem file of the chain at ``n`` variables, without its row if ``free``."""
    names = [f"x{i}" for i in range(n)]
    lines = [f"# the {'row-free' if free else 'constrained'} chained Rosenbrock at n = {n}: "
             "its summands on (x_i, x_i+1)",
             "# overlap without nesting, so the model has one lambda block per pair"
             + ("" if free else ", and"),
             *([] if free else ["# each square of the row joins the first pair holding its "
                                "variable"]),
             "[variables]", *(f"{v} -2 2" for v in names),
             "[objective]",
             "min " + " + ".join(f"100*({b} - {a}^2)^2 + (1 - {a})^2"
                                 for a, b in zip(names, names[1:]))]
    if not free:
        lines += ["[constraints]", " + ".join(f"{v}^2" for v in names) + f" <= {n - 0.5:g}"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="number of variables, at least 2")
    ap.add_argument("--free", action="store_true", help="drop the row (the freeN form)")
    ap.add_argument("--out", help="file to write (default: standard output)")
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error("n must be at least 2")
    text = chain_text(args.n, args.free)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
