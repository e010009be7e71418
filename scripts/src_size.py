#!/usr/bin/env python3
"""Print the size of a checkout's ``src/sppa``: lines and syntax-tree nodes.

The line count is the sum of the lines of every ``src/sppa/*.py``; the
node count is the number of nodes ``ast.walk`` visits in each module's
tree, summed.  Lines alone can be held by packing code onto fewer of
them, while the node count follows what the interpreter compiles.

Usage, from anywhere:
    python3 scripts/src_size.py [CHECKOUT]

``CHECKOUT`` defaults to the checkout that holds this script.
"""

import argparse
import ast
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def src_size(checkout: pathlib.Path) -> tuple[int, int]:
    """``(lines, nodes)`` of every ``src/sppa/*.py`` under ``checkout``."""
    lines = nodes = 0
    for path in sorted((checkout / "src" / "sppa").glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        nodes += sum(1 for _ in ast.walk(ast.parse(text, str(path))))
    return lines, nodes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=str(_ROOT), help="root of a checkout")
    root = pathlib.Path(ap.parse_args(argv).checkout)
    if not (root / "src" / "sppa").is_dir():
        ap.error(f"{root} holds no src/sppa")
    lines, nodes = src_size(root)
    print(f"src/sppa: {lines} lines, {nodes} syntax-tree nodes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
