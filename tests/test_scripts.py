"""The scripts under scripts/ import cleanly against the package, so a
refactor that removes a name they use fails here. Nothing is trained."""

import importlib
import os

import pytest

from sevx.tensor import _topo_order

SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
SCRIPTS = ("config_parity", "run_ablation_tables", "run_toy_experiment", "tape_census",
           "toy_checkpoint_hashes")


@pytest.fixture()
def scripts(monkeypatch):
    # run_ablation_tables imports run_toy_experiment as a sibling module
    monkeypatch.syspath_prepend(SCRIPTS_DIR)
    return {name: importlib.import_module(name) for name in SCRIPTS}


def test_every_script_imports_and_has_a_main(scripts):
    assert sorted(f[:-3] for f in os.listdir(SCRIPTS_DIR) if f.endswith(".py")) == sorted(SCRIPTS)
    for module in scripts.values():
        assert callable(module.main)


def test_config_parity_case_lines(scripts):
    case_lines = scripts["config_parity"].case_lines
    accepted = case_lines("se.stages", "2,1")
    assert accepted[0] == "se.stages = '2,1': accepted"
    assert "  se.stages = 2,1" in accepted
    assert any(line.startswith("  SEConfig(") and "stages=frozenset({1, 2})" in line
               for line in accepted)
    assert case_lines("se.stages", "1,x") == ["se.stages = '1,x': rejected: invalid config: "
                                              "se.stages: expected a comma list of int values, "
                                              "got '1,x'"]


def test_config_parity_runs_every_case(scripts, capsys):
    parity = scripts["config_parity"]
    assert parity.main() == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("  ")]
    assert len(verdicts) == len(parity.SCHEMA) * len(parity.VALUES) == 27 * 38
    # each rejected case carries its message
    assert all(line.endswith(": accepted") or (": rejected: " in line and
                                               not line.endswith(": rejected: "))
               for line in verdicts)


def test_toy_experiment_returns_the_failing_analyze_code(scripts, monkeypatch, tmp_path):
    toy = scripts["run_toy_experiment"]
    steps = []

    def fake_main(argv):
        steps.append(argv[1])
        return 2 if argv[1] == "analyze" else 0

    monkeypatch.setattr(toy, "sevx_main", fake_main)
    monkeypatch.setattr("sys.argv", ["run_toy_experiment.py", "--out", str(tmp_path)])
    assert toy.main() == 2
    assert steps == ["make-data", "train", "score", "metrics", "analyze"]


def test_tape_census_finds_no_relu_input_or_square_on_the_tape(scripts, monkeypatch, capsys):
    census = scripts["tape_census"]
    loss = census.toy_loss(2)
    ops = [node for node in _topo_order(loss) if node._backward is not None]
    names = [node._backward.__qualname__ for node in ops]
    assert "Tensor.relu_.<locals>.<lambda>" in names
    for node, name in zip(ops, names):
        # the SE excitation's ReLUs act on (b, d) rows; every 4-D one is in place
        if name.startswith("Tensor.relu."):
            assert all(a.ndim < 4 for a in census.held_arrays(node))
        # the std pooling's variance is one op over x - mu; aam_loss squares 2-D rows
        if name.startswith("Tensor.__mul__.") and node.ndim == 4:
            assert node._parents[0] is not node._parents[1]
    totals = census.census(loss)
    assert totals["Tensor.relu_.<locals>.<lambda>"] > 0
    monkeypatch.setattr("sys.argv", ["tape_census.py", "--batch", "2"])
    assert census.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(" MiB  total") and len(lines) == len(totals) + 1
