import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import nacent.corpus
import nacent.groups
import nacent.subgroups
from nacent import build
from nacent.groups import table_dtype


@pytest.fixture(scope="session")
def run_fresh():
    """`run_fresh(script)` runs the Python source `script` in a fresh
    interpreter that imports this checkout's `nacent`, and returns its last
    stdout line parsed as JSON; a non-zero exit fails the test with its
    stderr. It shows what one run imports or peaks at, which the test
    process, holding every earlier test's imports and allocations, cannot."""
    src = Path(nacent.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(script: str):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run


@pytest.fixture(scope="session")
def analyze_fresh(run_fresh, tmp_path_factory):
    """`analyze_fresh(spec, max_order)` runs `analyze spec` through
    `nacent.cli.main` in a fresh interpreter and returns its exit code, its
    wall time in seconds and its peak RSS beyond the floor of an interpreter
    that has only imported `nacent.cli`, in multiples of the group's stored
    table. ru_maxrss is in KiB on Linux."""
    maxrss = "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss"
    floor = run_fresh(f"import resource\nimport nacent.cli\nprint({maxrss})\n")
    out = tmp_path_factory.mktemp("analyze") / "out.jsonl"

    def run(spec: str, max_order: int):
        code, wall, peak = run_fresh(
            "import json, os, resource, time\n"
            f"os.environ['NACENT_MAX_ORDER'] = '{max_order}'\n"
            "from nacent.cli import main\n"
            "start = time.monotonic()\n"
            f"code = main(['analyze', {spec!r}, '--out', {str(out)!r}])\n"
            f"print(json.dumps([code, time.monotonic() - start, {maxrss}]))\n")
        n = json.loads(out.read_text())["order"]
        return code, wall, (peak - floor) * 1024 / (n * n * table_dtype(n).itemsize)

    return run


@pytest.fixture(scope="session")
def s3():
    return build("symmetric(3)")


@pytest.fixture(scope="session")
def s4():
    return build("symmetric(4)")


@pytest.fixture(scope="session")
def q8():
    return build("dicyclic(2)")


@pytest.fixture(scope="session")
def z6():
    return build("cyclic(6)")


@pytest.fixture(scope="session")
def flagship():
    """The order-1029 two-nacent group; shared because it is the one
    expensive fixture."""
    return build("heisenberg_frobenius(7,3)")


def awkward_size(least, *counts):
    """The least k >= least that divides none of `counts`, so that each count
    split into blocks of k ends in a short block."""
    k = least
    while any(c % k == 0 for c in counts):
        k += 1
    return k


@pytest.fixture
def forced_blocks(monkeypatch):
    """`force(n, *counts)` shrinks the blocks of every whole-table pass for a
    table of order n: row blocks of k rows, where k divides neither n nor any
    of `counts` (the semidirect fill blocks |K| rows). Each pass then runs
    over several blocks with a short last one. `BLOCK_CELLS` is patched in
    every module that reads it: to 4 k n in `groups` and `corpus`, whose
    passes over table rows take BLOCK_CELLS // (4 n) rows, and to k n in
    `subgroups`, so that a table of order above k leaves the one-block
    centralizer path (n^2 <= BLOCK_CELLS)."""
    def force(n, *counts):
        k = awkward_size(2, n, *counts)
        monkeypatch.setattr(nacent.groups, "BLOCK_CELLS", 4 * k * n)
        monkeypatch.setattr(nacent.corpus, "BLOCK_CELLS", 4 * k * n)
        monkeypatch.setattr(nacent.subgroups, "BLOCK_CELLS", k * n)

    return force
