"""Record the casestudy workload's artifact digests for every config seed it uses.

Run from the repository root after a change that is meant to alter the
case-study artifacts (and only then):

    python3 perfbench/record_digests.py

Each workload seed picks one of ``CASESTUDY_VARIANTS`` config seeds; this
runs the scaled case study once per variant, emits its report and stores
the SHA-256 of ``table1.csv``, ``sweeps.csv`` and ``report.json`` under the
scaled config's hash in ``perfbench/digests.json``.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from crowdharvest import scenario  # noqa: E402


def main() -> int:
    config = scenario.load_config(workloads.CONFIG_PATH)
    scale = workloads.DEFAULT_SCALE["casestudy"]
    out_dir = ROOT / "perfbench" / "out" / "record-digests"
    digests = {}
    try:
        for variant in range(workloads.CASESTUDY_VARIANTS):
            cfg = workloads.casestudy_config(config, variant, scale)
            scenario.emit_report(scenario.run_case_study(cfg, workers=1), out_dir)
            key = scenario.config_hash(cfg)
            digests[key] = workloads.artifact_digests(out_dir)
            print(f"config seed {cfg.seed}: {key}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
