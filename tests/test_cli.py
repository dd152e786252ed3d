from __future__ import annotations

import json

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
