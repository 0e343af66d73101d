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


FIG1 = """# figure=fig1
theta2_over_sigma,c_tilde_closed_form,c_tilde_quadrature
0.5,0.875,0.875
1,0.625,0.625
"""
FIG3 = """# figure=fig3
# c_tilde=0.5
# di_delta1=0.25
delta1,delta2
0,1
"""


@pytest.fixture
def scoped_trees(trees):
    """``trees`` with a fig1 table and a fig3 frontier, for the columns and meta words."""
    for side in ("base", "new"):
        for name, text in (("fig1/fig1.csv", FIG1), ("fig3/fig3.csv", FIG3)):
            path = trees / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return trees


# Per scope word: a change it declares, the line that declares it, the
# report of that change, and a change just outside the scope.
SCOPES = {
    "rows": (
        ("custom/custom.csv", "direct,-1,0.5,0.25,0.125", "direct,-1,0.5,0.25,0.1"),
        "custom/custom.csv rows=direct",
        "custom/custom.csv: irtr_residual: 1 changed, largest change 2.500e-02, relative 2.000e-01",
        ("custom/custom.csv", "0,0.1,direct,-1", "0,0.2,direct,-1"),
    ),
    "columns": (
        ("fig1/fig1.csv", "0.5,0.875,0.875", "0.5,0.875,0.75"),
        "fig1/fig1.csv columns=c_tilde_quadrature",
        "fig1/fig1.csv: c_tilde_quadrature: 1 changed, largest change 1.250e-01, "
        "relative 1.429e-01",
        ("fig1/fig1.csv", "1,0.625,0.625", "1,0.5,0.625"),
    ),
    "meta": (
        ("fig3/fig3.csv", "# c_tilde=0.5", "# c_tilde=0.25"),
        "fig3/fig3.csv meta=c_tilde",
        "fig3/fig3.csv: # c_tilde: 1 changed, largest change 2.500e-01, relative 5.000e-01",
        ("fig3/fig3.csv", "# di_delta1=0.25", "# di_delta1=0.5"),
    ),
}


@pytest.mark.parametrize("word", SCOPES)
def test_a_declared_change_passes_and_is_reported(scoped_trees, capsys, word):
    declared, line, report, _ = SCOPES[word]
    assert compare(scoped_trees, [line], [declared]) == 0
    assert capsys.readouterr().out.splitlines() == [
        report, "4 files byte-identical, 1 changed as listed"
    ]


@pytest.mark.parametrize("word", SCOPES)
def test_the_same_change_without_its_word_fails(scoped_trees, word):
    declared, line, _, _ = SCOPES[word]
    assert compare(scoped_trees, [line.split()[0]], [declared]) == 1


@pytest.mark.parametrize("word", SCOPES)
def test_a_change_just_outside_the_scope_fails(scoped_trees, word):
    declared, line, _, outside = SCOPES[word]
    assert compare(scoped_trees, [line], [outside]) == 1
    # Also beside the declared change.
    assert compare(scoped_trees, [line], [declared]) == 1


@pytest.mark.parametrize(
    "line, edit",
    [
        ("fig1/fig1.csv columns=c_tilde_quadrature", ("fig1/fig1.csv", ",0.625\n", ",x\n")),
        ("fig3/fig3.csv meta=c_tilde", ("fig3/fig3.csv", "# c_tilde=0.5", "# c_tilde=half")),
        ("fig3/fig3.csv meta=c_tilde", ("fig3/fig3.csv", "# c_tilde=", "# ctilde=")),
        ("fig2.err rows=direct", ("fig2.err", "3", "4")),
        ("custom/custom.csv rows", ("custom/custom.csv", "0,0.75,0.5", "0,0.7,0.5")),
        ("custom/custom.csv cells=delta1", ("custom/custom.csv", "0,0.75,0.5", "0,0.7,0.5")),
    ],
)
def test_scoped_changes_must_be_floats_to_csvs_in_known_words(scoped_trees, line, edit):
    # A changed cell or value must parse as a float, keys keep their names,
    # scope words apply to CSVs, and a word must be one of the three.
    assert compare(scoped_trees, [line], [edit]) == 1
