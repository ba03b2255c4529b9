"""Checks of the benchmark itself; run after changing anything under perfbench/.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json and spec.json declare the same metrics and
workloads, that every per-function metric names a public function of the
package, that the references hash as recorded and that an altered reference
shows up as failed groups. It then makes a short traced sweep200 run
(outputs of traced and untraced executions byte-identical, counts of two
traced executions repeated exactly) and runs the benchmark in a directory holding only BENCHMARK.json
and perfbench/, where it must fail without printing a result. Takes about
half a minute; prints one PASS/FAIL line per check and exits 1 on a failure.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def declarations(spec: dict, bench: dict) -> None:
    check("workloads agree", [w["name"] for w in bench["workloads"]] == list(spec["workloads"]))
    check("end-to-end metrics agree",
          [m["name"] for m in bench["end_to_end"]] == list(spec["end_to_end"]))
    check("per-layer metrics agree",
          [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"]))
    sys.path.insert(0, str(run.ROOT / "src"))
    missing = []
    for name in spec["per_layer"]:
        parts = name.split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls"):
            module = importlib.import_module(f"nacent.{parts[0]}")
            if not callable(getattr(module, parts[1], None)):
                missing.append(name)
    check("per-function metrics name package functions", not missing, ", ".join(missing))


def references(spec: dict) -> None:
    for name, workload in spec["workloads"].items():
        data = (run.HERE / workload["reference"]).read_bytes()
        check(f"reference {name} sha256", hashlib.sha256(data).hexdigest() == workload["sha256"])
    reference = (run.HERE / spec["workloads"]["sweep200"]["reference"]).read_bytes()
    lines = reference.splitlines(keepends=True)
    altered = b"".join(lines[:5] + [lines[5].replace(b'"cent_count": ', b'"cent_count": 1')]
                       + lines[6:])
    ok = {"error": None, "exit_code": 0}
    groups = len(lines) - 1
    check("identical output fails no group",
          run.failed_groups({**ok, "output": reference}, reference) == (0, groups))
    check("one altered record fails one group",
          run.failed_groups({**ok, "output": altered}, reference) == (1, groups))
    check("non-zero exit fails every group",
          run.failed_groups({**ok, "exit_code": 1, "output": reference}, reference)
          == (groups, groups))
    check("a raised run fails every group",
          run.failed_groups({"error": "MemoryError", "exit_code": None, "output": b""},
                            reference) == (groups, groups))


def traced_run(spec: dict) -> None:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "sweep200",
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    check("traced sweep200 run exits 0", proc.returncode == 0, proc.stderr.strip()[-500:])
    if proc.returncode:
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    check("traced output identical to untraced and to the reference",
          result["correct"] and result["failed"] == 0)
    # one untraced and two traced executions, so run.py compared the counts of two
    reference = (run.HERE / spec["workloads"]["sweep200"]["reference"]).read_bytes()
    groups = len(reference.splitlines()) - 1
    check("counts compared across two traced executions", result["attempted"] >= 3 * groups,
          f"attempted {result['attempted']}")
    check("failed_frac is 0", result["metrics"]["failed_frac"]["value"] == 0)


def without_source() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep200",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check("fails without src/, printing no result",
          proc.returncode != 0 and not last[0].startswith("{"), proc.stdout[-300:])


def main() -> int:
    spec = run.load(run.HERE / "spec.json")
    bench = run.load(run.ROOT / "BENCHMARK.json")
    declarations(spec, bench)
    references(spec)
    traced_run(spec)
    without_source()
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
