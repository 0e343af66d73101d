#!/usr/bin/env python3
"""Compare two scripts/smoke.sh output trees, allowing the listed files to change.

    python3 scripts/compare_smoke.py BASE NEW CHANGED_LIST

BASE and NEW are the OUT_DIRs of two smoke.sh calls, say the base commit's
and this tree's; CHANGED_LIST names, one per line, the files (relative to
OUT_DIR, '#' starting a comment) that this tree changes on purpose.  Every
manifest.json is skipped, as ``diff -r -x manifest.json`` skips them.

A listed CSV may follow its path with scope words, which widen what it may
change:

    custom/custom.csv rows=direct,spade       these measurements' regret cells
    fig1/fig1.csv columns=c_tilde_quadrature  these columns, in every row
    fig3/fig3.csv meta=c_tilde,di_delta1      these '#' keys' values

- Both trees must hold the same files.
- A file not on the list must be byte-identical.
- A listed file must differ, so the list cannot go stale: once the change
  is in the base, the next change empties the list.
- A listed CSV keeps its '#' lines' keys and their order, its header and its
  row count.  Its random rows may change in their regret cells (delta1,
  delta2, irtr_residual), as may the cells and '#' values its scope words
  declare; everything else is byte-identical.  A table without a
  ``measurement`` column (fig5's samples) holds random rows only.  A changed
  cell or '#' value must parse as a float.  There is no tolerance: for each
  listed CSV and each column or key, the script prints how many cells
  changed and the largest absolute and relative change, for review.

Exits 1 and names every file that breaks a rule, 0 otherwise.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

REGRET_COLUMNS = ("delta1", "delta2", "irtr_residual")
SCOPE_WORDS = ("rows", "columns", "meta")


def listed(path: Path) -> dict[str, dict[str, set[str]]]:
    """Each listed file's scope: the values of its scope words, by word."""
    scopes = {}
    for line in path.read_text("utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        name, *words = fields
        scope = scopes[name] = {word: set() for word in SCOPE_WORDS}
        for word in words:
            key, _, values = word.partition("=")
            if key not in scope or not values:
                raise ValueError(f"{name}: {word!r} is not rows=..., columns=... or meta=...")
            scope[key].update(values.split(","))
    return scopes


def files(root: Path) -> set[str]:
    return {
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }


def metadata_and_rows(text: str) -> tuple[list[str], list[str]]:
    """A CSV's '#' lines, and its header and rows."""
    lines = text.splitlines()
    return [x for x in lines if x.startswith("#")], [x for x in lines if not x.startswith("#")]


class Changes:
    """The changed values of a file's declared columns and keys: count, largest changes."""

    def __init__(self):
        self.cells = {}

    def add(self, name: str, old: str, new: str) -> str | None:
        """Record one changed value; the problem, if ``new`` is not a float."""
        try:
            before, after = float(old), float(new)
        except ValueError:
            return f"{name}: {new!r} does not parse as a float"
        change = abs(after - before)
        relative = change / abs(before) if before else math.inf
        count, largest, largest_relative = self.cells.get(name, (0, 0.0, 0.0))
        self.cells[name] = count + 1, max(largest, change), max(largest_relative, relative)
        return None

    def report(self, path: str) -> list[str]:
        return [
            f"{path}: {name}: {count} changed, largest change {change:.3e}, relative {rel:.3e}"
            for name, (count, change, rel) in self.cells.items()
        ]


def csv_problems(base: str, new: str, scope: dict[str, set[str]]) -> tuple[list[str], Changes]:
    """What a listed CSV changed beyond its ``scope``, and what it changed within."""
    (base_meta, base_rows), (new_meta, new_rows) = metadata_and_rows(base), metadata_and_rows(new)
    changes, problems = Changes(), []
    keys = [[line.partition("=")[0] for line in meta] for meta in (base_meta, new_meta)]
    if keys[0] != keys[1]:
        return ["its '#' keys differ"], changes
    for key, old, line in zip(keys[0], base_meta, new_meta):
        if old == line:
            continue
        if key.lstrip("# ") not in scope["meta"]:
            problems.append(f"its '{key}' line differs")
        elif problem := changes.add(key, old.partition("=")[2], line.partition("=")[2]):
            problems.append(problem)
    if not base_rows or not new_rows or base_rows[0] != new_rows[0]:
        return ["its header differs"], changes
    if len(base_rows) != len(new_rows):
        return [f"its row count went from {len(base_rows) - 1} to {len(new_rows) - 1}"], changes
    header = base_rows[0].split(",")
    kind = header.index("measurement") if "measurement" in header else None
    for number, (old, row) in enumerate(zip(base_rows[1:], new_rows[1:]), 1):
        old_cells, cells = old.split(","), row.split(",")
        measurement = "random" if kind is None else old_cells[kind]
        rows = measurement == "random" or measurement in scope["rows"]
        free = {
            name for name in header
            if name in scope["columns"] or (rows and name in REGRET_COLUMNS)
        }
        if len(old_cells) != len(cells):
            problems.append(f"row {number} differs in its cell count")
            continue
        for name, before, after in zip(header, old_cells, cells):
            if before == after:
                continue
            if name not in free:
                problems.append(f"row {number} ({measurement}) differs in {name}, out of scope")
                break
            if problem := changes.add(name, before, after):
                problems.append(f"row {number}, {problem}")
    return problems, changes


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = Path(argv[0]), Path(argv[1])
    try:
        changed = listed(Path(argv[2]))
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    problems, report = [], []
    base_files, new_files = files(base), files(new)
    for name in sorted(base_files ^ new_files):
        problems.append(f"{name}: only in {base if name in base_files else new}")
    for name in sorted(changed.keys() - (base_files & new_files)):
        problems.append(f"{name}: listed as changed but not in both trees")
    for name in sorted(base_files & new_files):
        old, current = (root.joinpath(name).read_bytes() for root in (base, new))
        if name not in changed:
            if old != current:
                problems.append(f"{name}: differs, and is not listed as changed")
        elif old == current:
            problems.append(f"{name}: listed as changed, but is byte-identical")
        elif name.endswith(".csv"):
            details, changes = csv_problems(
                old.decode("utf-8"), current.decode("utf-8"), changed[name]
            )
            problems += [f"{name}: {detail}" for detail in details]
            report += changes.report(name)
        elif any(changed[name].values()):
            problems.append(f"{name}: scope words apply to CSVs only")
    for line in report:
        print(line)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(new_files) - len(changed)} files byte-identical, {len(changed)} changed as listed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
