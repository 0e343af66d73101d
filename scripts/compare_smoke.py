#!/usr/bin/env python3
"""Compare two scripts/smoke.sh output trees, allowing the listed files to change.

    python3 scripts/compare_smoke.py BASE NEW CHANGED_LIST

BASE and NEW are the OUT_DIRs of two smoke.sh calls, say the base commit's
and this tree's; CHANGED_LIST names, one per line, the files (relative to
OUT_DIR, '#' starting a comment) that this tree changes on purpose.  Every
manifest.json is skipped, as ``diff -r -x manifest.json`` skips them.

- Both trees must hold the same files.
- A file not on the list must be byte-identical.
- A listed file must differ, so the list cannot go stale: once the change
  is in the base, the next change empties the list.
- A listed CSV keeps its '#' lines, its header and its row count.  Only its
  random rows may change, and only in their regret cells (delta1, delta2,
  irtr_residual); every other row is byte-identical.  A table without a
  ``measurement`` column (fig5's samples) holds random rows only.

Exits 1 and names every file that breaks a rule, 0 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

REGRET_COLUMNS = ("delta1", "delta2", "irtr_residual")


def listed(path: Path) -> set[str]:
    names = (line.split("#", 1)[0].strip() for line in path.read_text("utf-8").splitlines())
    return {name for name in names if name}


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


def csv_problems(base: str, new: str) -> list[str]:
    """What a listed CSV changed beyond its random rows' regret cells."""
    (base_meta, base_rows), (new_meta, new_rows) = metadata_and_rows(base), metadata_and_rows(new)
    if base_meta != new_meta:
        return ["its '#' lines differ"]
    if not base_rows or not new_rows or base_rows[0] != new_rows[0]:
        return ["its header differs"]
    if len(base_rows) != len(new_rows):
        return [f"its row count went from {len(base_rows) - 1} to {len(new_rows) - 1}"]
    header = base_rows[0].split(",")
    kept = [i for i, name in enumerate(header) if name not in REGRET_COLUMNS]
    kind = header.index("measurement") if "measurement" in header else None
    problems = []
    for number, (old, row) in enumerate(zip(base_rows[1:], new_rows[1:]), 1):
        old_cells, cells = old.split(","), row.split(",")
        random = kind is None or old_cells[kind] == "random"
        if not random and old != row:
            problems.append(f"row {number}, not a random row, differs")
        elif len(old_cells) != len(cells) or any(old_cells[i] != cells[i] for i in kept):
            problems.append(f"row {number} differs outside its regret cells")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = Path(argv[0]), Path(argv[1])
    changed = listed(Path(argv[2]))
    problems = []
    base_files, new_files = files(base), files(new)
    for name in sorted(base_files ^ new_files):
        problems.append(f"{name}: only in {base if name in base_files else new}")
    for name in sorted(changed - (base_files & new_files)):
        problems.append(f"{name}: listed as changed but not in both trees")
    for name in sorted(base_files & new_files):
        old, current = (root.joinpath(name).read_bytes() for root in (base, new))
        if name not in changed:
            if old != current:
                problems.append(f"{name}: differs, and is not listed as changed")
        elif old == current:
            problems.append(f"{name}: listed as changed, but is byte-identical")
        elif name.endswith(".csv"):
            details = csv_problems(old.decode("utf-8"), current.decode("utf-8"))
            problems += [f"{name}: {detail}" for detail in details]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(new_files) - len(changed)} files byte-identical, {len(changed)} changed as listed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
