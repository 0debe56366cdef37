"""The scripts under scripts/ import cleanly against the package, so a
refactor that removes a name they use fails here. Nothing is trained."""

import importlib
import os

import pytest

SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
SCRIPTS = ("config_parity", "run_ablation_tables", "run_toy_experiment", "toy_checkpoint_hashes")


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
