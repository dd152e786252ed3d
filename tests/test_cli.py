from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from scatterlab import cli, scattering
from scatterlab.cli import main


def test_catalog_writes_tail_bound(tmp_path):
    assert main(["catalog", "--out", str(tmp_path)]) == 0
    entries = {e["name"]: e for e in json.loads((tmp_path / "catalog.json").read_text())}
    tail = entries["square_well"]["tail"]
    assert tail["kind"] == "compact"
    assert tail["radius"] == 1.0  # the well's half-width a
    assert entries["poeschl_teller"]["tail"]["rate"] == 2.0


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grids": {"x_stepp": 0.5}}))
    assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_unknown_potential_parameter_exits_2(tmp_path, capsys):
    for name in ("poeschl_teller", "square_well"):
        args = ["scatter", "--out", str(tmp_path / name)]
        args += ["--override", f"potential.name={name}", "--override", "potential.params.foo=1"]
        assert main(args) == 2
        assert "foo" in capsys.readouterr().err


def test_scaled_spec_runs_through_resonance(tmp_path):
    cfg = tmp_path / "config.json"
    base = {"name": "poeschl_teller", "params": {}}
    cfg.write_text(json.dumps({"potential": {"name": "scaled", "params": {"base": base, "s": 0.5}}}))
    out = tmp_path / "out"
    assert main(["resonance", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "resonance.json").read_text())
    assert report["potential"] == "scaled(poeschl_teller,s=0.5)"
    assert not report["resonant"]


def test_resonance_gate_fails_on_a_wrong_gamma(tmp_path, monkeypatch):
    # T(0), R±(0) follow from γ; the gate compares them with the independent
    # k → 0 extrapolation of the computed T, R±.  A γ 1% off moves R±(0) of
    # the sech² well by about 1e-2.
    assert main(["resonance", "--out", str(tmp_path / "ok")]) == 0
    scan = scattering.zero_energy_scan

    def off_gamma(pot, **kwargs):
        zed = scan(pot, **kwargs)
        return replace(zed, gamma=1.01 * zed.gamma)

    monkeypatch.setattr(scattering, "zero_energy_scan", off_gamma)
    out = tmp_path / "off"
    assert main(["resonance", "--out", str(out)]) == 1
    report = json.loads((out / "resonance.json").read_text())
    assert report["resonant"] and not report["passed"]
    assert report["limit_consistency"] > 1e-3


def test_decay_grid_off_the_growth_lattice_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # step 0.4 misses x = -5 of the exterior proxy's integer lattice; the
    # stage must say so before preparing the propagator
    def no_solve(*args, **kwargs):
        raise AssertionError("prepare_propagator ran")

    monkeypatch.setattr(cli, "prepare_propagator", no_solve)
    args = ["decay", "--out", str(tmp_path)]
    for kv in ("grids.x_step=0.4", "grids.k_max=20", "grids.k_count=2001"):
        args += ["--override", kv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grids.x_step=0.4" in err and "x=-5 " in err
    assert not (tmp_path / "decay_report.json").exists()


@pytest.mark.parametrize(
    "stage, overrides",
    [
        ("decay", ["times.count=7"]),  # decay_fit needs 8 samples
        ("decay", ["times.t_max=300"]),  # ... spanning 1.5 decades
        ("decay", ["times.t_min=0.5"]),  # the kernel rule needs t >= 1
        ("decay", ["grids.k_max=0.5"]),  # 2 t_min k_max <= 2 x_max: no tail bound
        ("decay", ["times.t_min=1", "grids.k_max=8"]),  # the same, at equality
        ("wiener", ["wiener.derivative_orders=4"]),
        ("wiener", ["wiener.derivative_orders=-1"]),
    ],
)
def test_config_errors_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, stage, overrides):
    # each value passes RunConfig.validate but breaks a rule of the stage's
    # library call; the stage checks that rule on the config first
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "prepare_propagator", no_solve)
    monkeypatch.setattr(cli, "scattering_data", no_solve)
    args = [stage, "--out", str(tmp_path)]
    for kv in overrides:
        args += ["--override", kv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert all(kv in err for kv in overrides)
    assert not (tmp_path / f"{stage}_report.json").exists()


def test_sampled_csv_spec_runs_and_a_missing_file_exits_2(tmp_path, capsys):
    xs = np.linspace(-10.0, 10.0, 201)
    path = tmp_path / "well.csv"
    np.savetxt(path, np.column_stack([xs, -2.0 / np.cosh(xs) ** 2]), delimiter=",")
    args = ["resonance", "--override", "potential.name=sampled"]
    out = tmp_path / "out"
    assert main(args + ["--override", f"potential.params.csv={path}", "--out", str(out)]) != 2
    assert json.loads((out / "resonance.json").read_text())["potential"] == "sampled(n=201)"
    missing = tmp_path / "missing.csv"
    assert main(args + ["--override", f"potential.params.csv={missing}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {missing} not found" in err


def test_sampled_spec_with_explicit_tail_bound_runs_through_resonance(tmp_path, capsys):
    # the automatic exponential fit of these samples overflows (coef = inf);
    # an explicit tail bound in the config lets the stage run (its own
    # limit check may fail on so odd a potential; that is not under test)
    args = ["resonance", "--override", "potential.name=sampled"]
    args += ["--override", 'potential.params={"x":[100,101,102,103],"v":[1,4.5e-5,2e-9,9.4e-14]}']
    assert main(args + ["--out", str(tmp_path / "fit")]) == 2
    assert "pass an explicit TailBound" in capsys.readouterr().err
    bound = {"kind": "exp", "radius": 103.0, "coef": 1.0, "rate": 10.0}
    out = tmp_path / "bound"
    assert main(args + ["--override", f"potential.tail_bound={json.dumps(bound)}", "--out", str(out)]) != 2
    assert json.loads((out / "resonance.json").read_text())["potential"] == "sampled(n=4)"
    assert json.loads((out / "manifest.json").read_text())["config"]["potential"]["tail_bound"] == bound
    bad = dict(bound, kind="gaussian")
    assert main(args + ["--override", f"potential.tail_bound={json.dumps(bad)}", "--out", str(tmp_path / "bad")]) == 2
    assert "tail bound kind" in capsys.readouterr().err
