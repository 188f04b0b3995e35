"""Self-test of the benchmark: a reduced pass of every workload.

    python3 perfbench/selftest.py

Runs run.py the way a driver does, with --seconds 1 (one job, or one full
pass of the probe pool), and checks that:

  * BENCHMARK.json names exactly the metrics run.py prints, with the same
    units, and every name matches [A-Za-z0-9_.-]+ and carries a unit;
  * every workload ends correct, with exit code 0 and failed == 0;
  * probe-mix inputs are a pure function of --seed: two runs with one seed
    give the same digest, and another seed gives another;
  * the traced run (verify-q4 and probe-mix) emits every per-layer metric,
    and each one it could not measure has a recorded reason.

It takes about six minutes, most of it in sweep-q8 and geometry-q9.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def check_names(metrics: dict, expected: dict, where: str) -> None:
    assert set(metrics) == set(expected), \
        f"{where}: metrics differ from the table: " \
        f"{sorted(set(metrics) ^ set(expected))}"
    for name, m in metrics.items():
        assert NAME.fullmatch(name), f"{where}: bad metric name {name!r}"
        assert UNIT.fullmatch(m["unit"]) and m["unit"] == expected[name], \
            f"{where}: {name} has unit {m['unit']!r}"
        assert isinstance(m["value"], (int, float)), f"{where}: {name} value"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)

    for wl in run.WORKLOADS:
        record, res = bench(wl, 1, 0)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        check_names(res["metrics"], run.END_TO_END, wl)
        for name, m in res["metrics"].items():
            assert m["value"] > 0, f"{wl}: {name} is not positive"
        print(f"ok  {wl}: {record['calls']} calls, "
              f"wall_s {res['metrics']['wall_s']['value']:.3f}")
        if wl == "probe-mix":
            first = record["digest"]

    again, _ = bench("probe-mix", 1, 0)
    other, _ = bench("probe-mix", 2, 0)
    assert again["digest"] == first, "same seed, different probe digest"
    assert other["digest"] != first, "different seeds, same probe digest"
    print("ok  probe-mix digest is a function of the seed")

    for wl in ("verify-q4", "probe-mix"):
        record, res = bench(wl, 1, 1)
        assert res["correct"] and res["failed"] == 0
        check_names(res["metrics"], run.PER_LAYER, f"{wl} traced")
        zero = {n for n, m in res["metrics"].items() if m["value"] == 0}
        for name in zero - set(record["dropped"]):
            assert name.endswith((".self_s", ".calls", ".classes", ".chunks",
                                  ".count")), \
                f"{wl} traced: {name} is 0 without a recorded reason"
        print(f"ok  {wl} traced: {len(res['metrics'])} per-layer metrics, "
              f"dropped {sorted(record['dropped'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
