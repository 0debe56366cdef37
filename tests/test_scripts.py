"""The scripts under scripts/ import cleanly against the package, so a
refactor that removes a name they use fails here. Nothing is trained."""

import importlib
import os

import numpy as np
import pytest

from sevx.tensor import _topo_order

SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
SCRIPTS = ("bench_ab", "config_parity", "run_ablation_tables", "run_toy_experiment",
           "tape_census", "toy_checkpoint_hashes")


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


def _innermost_rule(rule):
    """The rule that ``relu_`` wrapped, or the rule itself."""
    cells = dict(zip(rule.__code__.co_freevars, rule.__closure__ or ()))
    return _innermost_rule(cells["rule"].cell_contents) if "rule" in cells else rule


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
        # the std pooling's variance is one op over (x, mu); aam_loss squares 2-D rows
        if name.startswith("Tensor.__mul__.") and node.ndim == 4:
            assert node._parents[0] is not node._parents[1]
        assert not (name.startswith("Tensor.__sub__.") and node.ndim == 4)
    # every residual sum is written into its branch output
    sums = [node for node in ops if node.ndim == 4 and _innermost_rule(node._backward)
            .__qualname__.startswith(("Tensor.__add__.", "Tensor.add_."))]
    assert sums and all(np.shares_memory(n.data, n._parents[0].data) for n in sums)
    totals = census.census(loss)
    assert totals["Tensor.relu_.<locals>.<lambda>"] > 0
    assert sum(census.census(census.toy_loss(20)).values()) <= 123.5 * 2**20
    monkeypatch.setattr("sys.argv", ["tape_census.py", "--batch", "2"])
    assert census.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(" MiB  total") and len(lines) == len(totals) + 1


def test_bench_ab_summary_counts_pairs_bounds_and_the_gain_rule(scripts):
    declared = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
                {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]

    def runs(peak, work, op):
        return [{"metrics": {"peak_rss_mb": a, "work_per_s": b, "op_ms_p50": c}}
                for a, b, c in zip(peak, work, op)]

    parent = runs([246.6, 246.7, 246.8, 246.7, 246.6], [30.0, 31.0, 32.0, 33.0, 34.0],
                  [600.0, 610.0, 620.0, 630.0, 640.0])
    change = runs([204.0, 203.5, 203.8, 246.7, 203.9], [30.0, 22.0, 23.0, 24.0, 25.0],
                  [600.0, 620.0, 630.0, 640.0, 650.0])
    summary = scripts["bench_ab"].summarize(parent, change, declared)
    peak, work, op = (summary[m["name"]] for m in declared)
    # the tie in pair 4 counts for neither side: 4/5 misses the 90 % share
    assert peak["better_in"] == "4/5" and not peak["gain_rule"] and not peak["worse_than_bound"]
    assert peak["parent"] == {"median": 246.7, "q1": 246.6, "q3": 246.7}
    assert peak["change"]["median"] == 203.9 and round(peak["change_pct"], 1) == -17.3
    # higher is better: 32 -> 24 is 25 % worse, exactly the bound, so not beyond it
    assert work["better_in"] == "0/5" and not work["worse_than_bound"]
    assert op["better_in"] == "0/5" and not op["worse_than_bound"] and not op["gain_rule"]
    lower = scripts["bench_ab"].summarize(parent, runs([200.0] * 5, [10.0] * 5, [900.0] * 5),
                                          declared)
    assert lower["peak_rss_mb"]["gain_rule"] and lower["peak_rss_mb"]["better_in"] == "5/5"
    assert lower["work_per_s"]["worse_than_bound"] and lower["op_ms_p50"]["worse_than_bound"]
    # better in every pair, but by less than the parent's interquartile range
    close = scripts["bench_ab"].summarize(parent, runs([246.5] * 5, [40.0] * 5,
                                                       [599.0, 609.0, 619.0, 629.0, 639.0]),
                                          declared)["op_ms_p50"]
    assert close["better_in"] == "5/5" and not close["gain_rule"]


@pytest.mark.parametrize("workload", ["all", "train_toy"])
def test_bench_ab_refuses_an_undeclared_workload_before_building_the_parent(
        scripts, monkeypatch, tmp_path, capsys, workload):
    bench_ab = scripts["bench_ab"]

    def build_parent(rev):
        raise AssertionError("the parent side was built")

    monkeypatch.setattr(bench_ab, "build_parent", build_parent)
    monkeypatch.setattr("sys.argv", ["bench_ab.py", "--parent", "HEAD", "--workload", workload,
                                     "--seed", "1", "--out", str(tmp_path / "out.json")])
    with pytest.raises(SystemExit) as exit_info:
        bench_ab.main()
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err and not (tmp_path / "out.json").exists()


def test_bench_ab_counts_pairs_whose_digests_agree_over_the_common_operations(scripts):
    def runs(*digests):
        return [{"digests": d} for d in digests]

    parent = runs(["a", "b", "c"], ["a", "b"], ["a", "x"])
    change = runs(["a", "b"], ["a", "b", "c"], ["a", "b"])
    # a side that ran more operations is compared over the ones both ran
    assert scripts["bench_ab"].digests_equal_in(parent, change) == "2/3"
