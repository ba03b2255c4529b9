"""Benchmark of the nacent verifier: fixed workloads through ``nacent.cli.main``.

    python3 perfbench/run.py --workload sweep200 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Every execution is a fresh interpreter running ``perfbench/child.py`` at
``--parallelism 1`` with numpy's thread pools set to one thread, so that peak
RSS belongs to that execution alone. Workloads, the size switches each one
exercises and the layer -> end-to-end map live in ``perfbench/spec.json``;
metric names, units and bounds in ``BENCHMARK.json``.

``--trace 0`` repeats rounds of set-up probes and one untraced execution
for ``--seconds`` seconds, fills what is left of that time with probes and
reports the end-to-end metrics. ``--trace 1`` alternates untraced and traced
executions, with at least two traced ones, and reports the per-layer
metrics. Every execution's output is compared with the committed reference. The last stdout line is the JSON
result; lines before it are notes. The exit code is non-zero, with no
result printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# every child must be done by then, so that a run ends within 180 s
RUN_LIMIT_S = 170.0
# fresh interpreters timed up to the import before each execution, so that
# set-up is sampled over the whole run and not in one burst
PROBES_PER_ROUND = 2


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc


def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NACENT_") and k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its parsed result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"no time left for another execution within {RUN_LIMIT_S} s")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"execution did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_imported"] - t0
    result["elapsed_s"] = time.monotonic() - t0
    return result


def records_by_group(data: bytes) -> dict[str, bytes]:
    return {json.loads(line)["group_id"]: line for line in data.splitlines()}


def failed_groups(run: dict, reference: bytes) -> tuple[int, int]:
    """(failed, attempted) groups of one execution against the reference.

    A group fails when its record is missing or differs from the reference
    line (the reference carries no violations, so a violation differs too).
    When the execution raised, exited non-zero or wrote different bytes
    without any single group differing, every group counts as failed.
    """
    expected = records_by_group(reference)
    groups = [g for g in expected if g != "summary"]
    output = run["output"]
    if run["error"] is None and run["exit_code"] == 0 and output == reference:
        return 0, len(groups)
    try:
        got = records_by_group(output)
    except (ValueError, KeyError, TypeError):
        got = {}
    bad = sum(got.get(g) != expected[g] for g in groups)
    return bad or len(groups), len(groups)


class Bench:
    def __init__(self, args, spec: dict, bench: dict, work: Path):
        self.args = args
        self.spec = spec
        self.bench = bench
        self.workload = spec["workloads"][args.workload]
        self.env = child_env(self.workload["env"])
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.reference = (HERE / self.workload["reference"]).read_bytes()
        digest = hashlib.sha256(self.reference).hexdigest()
        if digest != self.workload["sha256"]:
            raise HarnessError(f"reference {self.workload['reference']} has sha256 {digest}, "
                               f"expected {self.workload['sha256']}")
        self.executions = 0
        self.failed = self.attempted = 0

    def probe(self) -> float:
        return spawn(["probe"], self.env, self.deadline)["setup_s"]

    def execute(self, mode: str) -> dict:
        self.executions += 1
        out = self.work / f"out-{self.executions}.jsonl"
        argv = [*self.workload["argv"], "--out", str(out)]
        run = spawn([mode, *argv], self.env, self.deadline)
        run["output"] = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        failed, attempted = failed_groups(run, self.reference)
        self.failed += failed
        self.attempted += attempted
        print(f"{mode} {self.executions}: wall_s={run['wall_s']:.4f} "
              f"setup_s={run['setup_s']:.4f} peak_rss_mb={run['maxrss_kb'] / 1024:.1f} "
              f"exit={run['exit_code']} failed={failed}/{attempted}"
              + (f" error={run['error']}" if run["error"] else ""))
        return run

    def repeat(self, one_round) -> list:
        """Call ``one_round`` until another call would end past --seconds from the start."""
        results = []
        while True:
            t0 = time.monotonic()
            results.append(one_round())
            now = time.monotonic()
            if now - self.start + (now - t0) > self.args.seconds:
                return results

    def end_to_end(self) -> dict:
        self.probe()  # untimed: fills the bytecode caches
        self.start = time.monotonic()
        setups = []

        def one_round():
            setups.extend(self.probe() for _ in range(PROBES_PER_ROUND))
            run = self.execute("run")
            setups.append(run["setup_s"])
            return run

        runs = self.repeat(one_round)
        # a long execution leaves most of --seconds to probes
        setups += self.repeat(self.probe)
        print(f"setup samples: {len(setups)}")
        return {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
        }

    def per_layer(self) -> tuple[dict, bool]:
        self.probe()
        self.start = time.monotonic()
        rounds = self.repeat(lambda: (self.execute("run"), self.execute("trace")))
        traced = [t for _, t in rounds]
        if len(traced) < 2:  # a long execution: one more, so that counts are compared
            traced.append(self.execute("trace"))
        identical = len({r["output"] for r in [*traced, *(u for u, _ in rounds)]}) == 1
        if not identical:
            print("self-check failed: traced output differs from untraced output")
        traces = [t["trace"] for t in traced]
        counts = [(s["calls"], s["tables"], s["cells"]) for s in traces]
        if any(c != counts[0] for c in counts):
            raise HarnessError("call and table counts differ between traced executions")

        def median(key):
            return statistics.median(key(s) for s in traces)

        untraced_wall = statistics.median(u["wall_s"] for u, _ in rounds)
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        first = traces[0]
        values = {
            "groups.tables": first["tables"],
            "groups.cells": first["cells"],
            "rss.after_build_mb": median(lambda s: s["rss_after_build_kb"]) / 1024,
            "trace.overhead_frac": traced_wall / untraced_wall - 1,
            "trace.coverage_frac": median(lambda s: s["coverage_frac"]),
            "failed_frac": self.failed / self.attempted,
        }
        for layer in self.spec["layers"]:
            values[f"{layer}.self_s"] = median(lambda s: s["self_s"][layer])
        for name in sorted(first["incl_s"]):
            values[f"{name}.s"] = median(lambda s: s["incl_s"][name])
            values[f"{name}.calls"] = first["calls"][name]
        print("layer self_s: " + " ".join(
            f"{layer}={values[f'{layer}.self_s']:.4f}" for layer in self.spec["layers"]))
        print(f"traced wall_s={traced_wall:.4f} untraced wall_s={untraced_wall:.4f} "
              f"spans={first['spans']}")
        return values, identical

    def result(self) -> dict:
        if self.args.trace:
            declared = self.bench["per_layer"]
            values, identical = self.per_layer()
        else:
            declared = self.bench["end_to_end"]
            values, identical = self.end_to_end(), True
        metrics = {}
        for m in declared:
            name = m["name"]
            if name not in values:
                # a function that never ran on this workload has no span
                if not name.endswith((".s", ".calls")):
                    raise HarnessError(f"no measurement for declared metric {name}")
                values[name] = 0 if name.endswith(".calls") else 0.0
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        return {"correct": identical and self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def parse_args(argv, workloads, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are fixed inputs")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measuring time; whole executions, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        spec = load(HERE / "spec.json")
        bench = load(ROOT / "BENCHMARK.json")
        args = parse_args(argv, spec["workloads"], bench["run_seconds"])
        workload = spec["workloads"][args.workload]
        print(f"workload {args.workload}: {' '.join(workload['argv'])}"
              f" {' '.join(f'{k}={v}' for k, v in workload['env'].items())}".rstrip())
        print(f"chosen because: {workload['chosen_because']}")
        for switch, side in workload["switches"].items():
            print(f"switch {switch}: {side}")
        print(f"seed {args.seed}: recorded; it has no effect, the workloads are fixed inputs")
        for limit in spec["limits"]:
            print(f"limit: {limit}")
        # inside the checkout: the benchmark writes nowhere else
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
            result = Bench(args, spec, bench, Path(work)).result()
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
