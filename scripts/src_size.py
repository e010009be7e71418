#!/usr/bin/env python3
"""Print the size of a checkout's ``src/sppa``: lines and syntax-tree nodes.

One line per module ``src/sppa/*.py`` and one for their total: its lines,
and the number of nodes ``ast.walk`` visits in its tree.  Lines alone can
be held by packing code onto fewer of them, while the node count follows
what the interpreter compiles.  With ``--against OTHER``, each line also
gives the change from the checkout ``OTHER``; a module that only one side
has counts as 0 lines and 0 nodes on the other.

Usage, from anywhere:
    python3 scripts/src_size.py [CHECKOUT] [--against OTHER]

``CHECKOUT`` defaults to the checkout that holds this script.
"""

import argparse
import ast
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def src_size(checkout: pathlib.Path) -> dict[str, tuple[int, int]]:
    """``(lines, nodes)`` of every ``src/sppa/*.py`` under ``checkout`` by
    file name, then of all of them under ``total``."""
    sizes = {}
    for path in sorted((checkout / "src" / "sppa").glob("*.py")):
        text = path.read_text()
        sizes[path.name] = (len(text.splitlines()),
                            sum(1 for _ in ast.walk(ast.parse(text, str(path)))))
    sizes["total"] = (sum(lines for lines, _ in sizes.values()),
                      sum(nodes for _, nodes in sizes.values()))
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=str(_ROOT), help="root of a checkout")
    ap.add_argument("--against", metavar="OTHER", help="root of a checkout to compare with")
    args = ap.parse_args(argv)
    for root in filter(None, (args.checkout, args.against)):
        if not (pathlib.Path(root) / "src" / "sppa").is_dir():
            ap.error(f"{root} holds no src/sppa")
    sizes = src_size(pathlib.Path(args.checkout))
    base = src_size(pathlib.Path(args.against)) if args.against else None
    for name in [*sorted((sizes.keys() | (base or {}).keys()) - {"total"}), "total"]:
        lines, nodes = sizes.get(name, (0, 0))
        line = f"{name:<14}{lines:>7} lines{nodes:>8} nodes"
        if base is not None:
            old_lines, old_nodes = base.get(name, (0, 0))
            line += f"{lines - old_lines:>+8} lines{nodes - old_nodes:>+8} nodes"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
