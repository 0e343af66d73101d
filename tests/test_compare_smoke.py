"""Tests for scripts/compare_smoke.py, CI's comparison of smoke outputs with the base commit's."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_smoke.py"
spec = importlib.util.spec_from_file_location("compare_smoke", SCRIPT)
compare_smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_smoke)

CUSTOM = """# figure=custom
# seed=3
theta1_over_sigma,theta2_over_sigma,measurement,sample_index,delta1,delta2,irtr_residual
0,0.1,direct,-1,0.5,0.25,0.125
0,0.1,random,0,0.75,0.5,0.25
0,0.1,random,1,0.625,0.375,0.1875
"""
FIG5 = """# figure=fig5
sample_index,delta1,delta2,irtr_residual
0,0.75,0.5,0.25
1,0.625,0.375,0.1875
"""


@pytest.fixture
def trees(tmp_path):
    """Base and new smoke trees, equal to start with, and the list file."""
    for side in ("base", "new"):
        for name, text in (("custom/custom.csv", CUSTOM), ("fig5/fig5_samples.csv", FIG5),
                           ("fig2.err", "exit status 3\n"), ("fig5/manifest.json", side)):
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return tmp_path


def compare(root, listed, edits=()):
    """compare_smoke's exit status after ``edits`` (name, old, new) to the new tree."""
    for name, old, new in edits:
        path = root / "new" / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    (root / "list.txt").write_text("# comment\n" + "".join(f"{name}\n" for name in listed))
    return compare_smoke.main([str(root / "base"), str(root / "new"), str(root / "list.txt")])


def test_equal_trees_with_an_empty_list_pass(trees):
    assert compare(trees, []) == 0


def test_listed_random_regret_cells_may_change(trees):
    edits = [
        ("custom/custom.csv", "0,0.75,0.5", "0,0.7,0.5"),
        ("fig5/fig5_samples.csv", "0.1875", "0.2"),
    ]
    assert compare(trees, ["custom/custom.csv", "fig5/fig5_samples.csv"], edits) == 0


@pytest.mark.parametrize(
    "listed, edit",
    [
        ([], ("fig2.err", "3", "4")),  # an unlisted file differs
        (["fig2.err"], ("custom/custom.csv", "0.75", "0.7")),  # a listed file does not
        (["custom/custom.csv"], ("custom/custom.csv", "0.5,0.25,0.125", "0.5,0.25,0.12")),
        (["custom/custom.csv"], ("custom/custom.csv", "random,1", "random,2")),
        (["custom/custom.csv"], ("custom/custom.csv", "seed=3", "seed=4")),
        (["custom/custom.csv"], ("custom/custom.csv", "delta2,irtr", "delta2,residual")),
        (["fig5/fig5_samples.csv"], ("fig5/fig5_samples.csv", "1,0.625,0.375,0.1875\n", "")),
        (["fig5/fig5_samples.csv"], ("fig5/fig5_samples.csv", "\n1,", "\n2,")),
    ],
)
def test_other_changes_fail(trees, listed, edit):
    assert compare(trees, listed, [edit]) == 1


def test_manifests_are_skipped_and_missing_files_fail(trees):
    assert compare(trees, []) == 0  # The manifests differ.
    (trees / "new" / "fig2.err").unlink()
    assert compare(trees, []) == 1
