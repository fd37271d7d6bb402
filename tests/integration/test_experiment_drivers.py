"""Integration: experiment drivers and the CLI produce sane artifacts."""

from dataclasses import replace

import pytest

from repro.experiments import cli
from repro.experiments.ablations import run_ablation_completion, run_ablation_lut
from repro.experiments.cli import main as cli_main
from repro.experiments.fig45 import run_fig4, run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.motif_sweep import run_fig7, run_fig8
from repro.experiments.report import ExperimentResult
from repro.network.routing import RoutingMode


def test_fig4_driver_small():
    result = run_fig4(sizes=[2, 1024], iterations=3)
    assert result.name == "fig4"
    assert len(result.rows) == 2
    assert result.summary["max_reduction_pct"] > 40
    assert result.paper_claims["max_reduction_pct"] == 65.8


def test_fig5_driver_small():
    result = run_fig5(sizes=[2], iterations=3)
    assert 30 < result.summary["max_reduction_pct"] < 55


def test_fig6_driver_small():
    result = run_fig6(sizes=[64, 4096])
    assert result.summary["max_exchanges_needed"] > 50
    # static_N column >= adaptive_N column
    for row in result.rows:
        assert row[3] >= row[5]


def test_fig7_driver_tiny_grid():
    result = run_fig7(
        n_nodes=16, topologies=("dragonfly",), rates=("100Gbps",),
        routings=(RoutingMode.ADAPTIVE,), kb=2,
    )
    assert len(result.rows) == 1
    assert result.rows[0][5] > 1.5  # speedup column
    assert result.summary["n_nodes"] == 16


def test_fig8_driver_tiny_grid():
    result = run_fig8(
        n_nodes=16, topologies=("hyperx",), rates=("100Gbps",),
        routings=(RoutingMode.STATIC,), iterations=2,
    )
    assert len(result.rows) == 1
    assert 1.0 < result.rows[0][5] < 3.5


def test_ablation_drivers():
    lut = run_ablation_lut()
    assert any(row[0] == "gen6" for row in lut.rows)
    comp = run_ablation_completion()
    assert {row[0] for row in comp.rows} == {"mwait", "poll", "cq_poll"}


def test_cli_runs_and_writes_markdown(tmp_path, capsys):
    out = tmp_path / "results.md"
    rc = cli_main(["ablation-completion", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "A2" in captured and "regenerated" in captured
    text = out.read_text()
    assert "### ablation-completion" in text


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        cli_main(["fig99"])


#: Every registry entry (fig7/fig8 have their own small-grid tests above)
#: plus one single-cell command per tool, each as the argv a user types.
SMOKE_COMMANDS = [
    f"{name} --seed 1" for name in cli.REGISTRY if name not in ("fig7", "fig8", "kv-churn")
] + [
    "kv-churn --seed 1 --metrics-out {tmp}/report.json",
    "services --ops 40",
    "qos --no-qos",
    "active --chaos",
    "fuzz shrink 7 --known-bad --out {tmp}/shrunk.json",
]


@pytest.mark.parametrize("command", SMOKE_COMMANDS)
def test_cli_command_smoke(command, tmp_path, capsys):
    argv = command.format(tmp=tmp_path).split()
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] in cli.REGISTRY:
        assert f"[{argv[0]} regenerated in" in out
        if "--metrics-out" in argv:
            assert (tmp_path / "report.json.md").read_text().startswith("#")
    elif argv[0] == "fuzz":
        assert (tmp_path / "shrunk.json").exists()
    else:
        assert "invariants: ok" in out or "audit ok" in out


#: The summary keys that make up each sweep's verdict.
SWEEP_VERDICTS = {
    "chaos": ("all_invariants_ok",),
    "chaos-crash": ("all_invariants_ok",),
    "kv-churn": ("all_invariants_ok",),
    "qos-noisy": ("all_invariants_ok", "qos_off_shows_violation"),
    "active-flash": ("all_invariants_ok", "contrast_ok", "chaos_ok"),
}


@pytest.mark.parametrize(
    "name,false_key",
    [(name, key) for name, keys in SWEEP_VERDICTS.items() for key in keys + (None,)],
)
def test_sweep_exit_status_follows_its_verdict(name, false_key, monkeypatch, capsys):
    def fake_run(**kw):
        summary = {key: key != false_key for key in SWEEP_VERDICTS[name]}
        return ExperimentResult(name, "fake", ["seed"], [[1]], summary={**summary, "seeds": [1]})

    monkeypatch.setitem(cli.REGISTRY, name, replace(cli.REGISTRY[name], run=fake_run))
    assert cli_main([name, "--seed", "1"]) == (0 if false_key is None else 1)
    capsys.readouterr()


def test_fault_recovery_driver():
    from repro.experiments.fault_recovery import run_fault_recovery

    result = run_fault_recovery(n_steps=8, fail_at=5, step_bytes=4096,
                                step_compute_ns=20_000.0)
    rows = {row[0]: row for row in result.rows}
    rewind = rows["rewind (MPIX_Rewind)"]
    restart = rows["restart from scratch"]
    assert rewind[2] == 3  # replays only the steps after the last epoch
    assert restart[2] == 8  # replays everything
    assert rewind[1] < restart[1]
    assert result.summary["recovered_epoch"] == 4
