"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs the benchmark command on the 16x16 self-test workloads, traced and
untraced, and checks that:
  - BENCHMARK.json is what perfbench/catalog.py defines and keeps the
    format limits;
  - the last output line has exactly the result keys, every named metric
    is emitted once with its unit, and the outputs pass their checks;
  - names use only [A-Za-z0-9_.-];
  - in the span tables, self time never exceeds inclusive time and equals
    inclusive time minus the direct children;
  - without the lfam sources beside it the command fails without a result.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import csv
import json
import math
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_catalog() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(on_disk == benchmark_json(), "BENCHMARK.json differs from catalog.benchmark_json()")
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    expect(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        expect(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    for m in on_disk["end_to_end"] + on_disk["per_layer"]:
        expect(UNIT.fullmatch(m["unit"]) is not None, f"bad unit {m['unit']!r}")
        expect(m["better"] in ("lower", "higher"), f"bad 'better' for {m['name']}")
    for m in on_disk["end_to_end"]:
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']} outside (0, 0.25]")
    expect({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
           in on_disk["end_to_end"], "setup_s missing or not at the largest bound")
    for w in on_disk["workloads"]:
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
    expect(2 <= len(on_disk["workloads"]) <= 8 and len(on_disk["per_layer"]) <= 128,
           "workload or per-layer count out of range")


def check_result(label: str, proc: subprocess.CompletedProcess, catalog) -> None:
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr[-1500:]}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] is True, f"{label}: outputs not correct\n{proc.stdout[-1500:]}")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: attempted/failed")
    want = {m.name: m.unit for m in catalog}
    got = result["metrics"]
    expect(set(got) == set(want), f"{label}: metrics missing {sorted(set(want) - set(got))}, "
                                  f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        expect(set(entry) == {"value", "unit"}, f"{label}: {name} entry keys")
        expect(entry.get("unit") == want.get(name), f"{label}: {name} unit {entry.get('unit')}")
        value = entry.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {name} value {value!r}")


def check_spans(path: Path) -> None:
    with path.open() as fh:
        rows = {int(r["id"]): r for r in csv.DictReader(fh)}
    expect(bool(rows), f"{path.name}: no spans")
    child = defaultdict(float)
    for row in rows.values():
        parent = rows.get(int(row["parent"]))
        if parent is not None:
            child[int(row["parent"])] += float(row["inclusive_s"])
            expect(float(parent["start_s"]) <= float(row["start_s"])
                   and float(row["end_s"]) <= float(parent["end_s"]),
                   f"{path.name}: span {row['id']} outside its parent")
    for i, row in rows.items():
        incl, own = float(row["inclusive_s"]), float(row["self_s"])
        expect(-1e-9 <= own <= incl, f"{path.name}: span {i} self {own} vs inclusive {incl}")
        expect(abs(incl - child[i] - own) < 1e-9, f"{path.name}: span {i} self != inclusive - children")


def check_missing_sources() -> None:
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("--workload", "desk32", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "the command ran without the lfam sources")


def main() -> int:
    check_catalog()
    for workload in ("tiny-train", "tiny-eval"):
        for trace, catalog in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                       "--trace", str(trace))
            check_result(f"{workload} trace {trace}", proc, catalog)
        check_spans(HERE / "results" / f"{workload}-seed{SEED}-trace1-spans.csv")
    check_missing_sources()
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
