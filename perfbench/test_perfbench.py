"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``. Every
workload runs once untraced and once traced at a tiny count scale; the
test asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit and that every output check
passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crowdharvest import scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.01
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def cli_casestudy_digests(config, tmp_path: Path) -> dict[str, str]:
    """Digests of what ``crowdharvest casestudy`` emits for ``config``."""
    config_file = tmp_path / "config.yaml"
    scenario.save_config(config, config_file)
    out = tmp_path / "cli"
    subprocess.run([sys.executable, "-m", "crowdharvest.cli", "casestudy", "--config",
                    str(config_file), "--out", str(out)], check=True, env=ENV,
                   capture_output=True, timeout=600)
    return workloads.artifact_digests(out)


@pytest.fixture
def tiny_digests(tmp_path, monkeypatch):
    """Record the tiny casestudy config's digests from the CLI, not from the harness."""
    config = workloads.casestudy_config(scenario.load_config(workloads.CONFIG_PATH), 0, TINY)
    digests = {scenario.config_hash(config): cli_casestudy_digests(config, tmp_path)}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    monkeypatch.setattr(workloads, "DIGESTS_PATH", path)


def test_bench_json_lists_the_harness_metrics():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: spec[:2] for name, spec in tracing.PER_LAYER.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tiny_digests):
    result = run.run_workload(workload, seed=0, seconds=0.01, trace=trace, scale=TINY)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["provenance"]["workload_hash"]


def test_recorded_digests_match_the_cli_for_the_default_seed(tmp_path):
    base = scenario.load_config(workloads.CONFIG_PATH)
    config = workloads.casestudy_config(base, 0, workloads.DEFAULT_SCALE["casestudy"])
    assert config.seed == base.seed
    recorded = json.loads(workloads.DIGESTS_PATH.read_text())
    assert recorded[scenario.config_hash(config)] == cli_casestudy_digests(config, tmp_path)


def test_compare_refuses_different_workload_hashes(tmp_path, capsys):
    files = []
    for i, workload_hash in enumerate(("aaaa", "bbbb")):
        doc = {"provenance": {"workload_hash": workload_hash},
               "metrics": {"wall_s": {"value": 1.0 + i, "unit": "s"}}}
        files.append(tmp_path / f"{i}.json")
        files[-1].write_text(json.dumps(doc))
    assert run.main(["--compare", str(files[0]), str(files[1])]) == 3
    assert "refusing to compare" in capsys.readouterr().err
    assert run.main(["--compare", str(files[0]), str(files[0])]) == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "policy", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
