"""One execution of the nacent CLI in a fresh interpreter, started by run.py.

    python3 perfbench/child.py probe
    python3 perfbench/child.py run|trace CLI_ARGS...

``probe`` imports ``nacent.cli`` and stops. ``run`` then times
``nacent.cli.main(CLI_ARGS)``; ``trace`` does the same with the layer
modules named in spec.json wrapped by ``tracer.Tracer``. The last stdout
line is a JSON object holding ``t_imported`` (``time.monotonic()`` right
after the import; the clock is
system-wide, so the parent can subtract its own spawn time) and, for a run,
the wall time, exit code, error and ``ru_maxrss``. The exit code is non-zero
only when the package cannot be imported from this checkout's ``src``.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    import nacent.cli

    t_imported = time.monotonic()
    if not Path(nacent.cli.__file__).resolve().is_relative_to(SRC):
        print(f"nacent was imported from {nacent.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    result = {"t_imported": t_imported}
    mode = sys.argv[1]
    if mode != "probe":
        tracer = restore = None
        if mode == "trace":
            from tracer import Tracer

            spec = json.loads((Path(__file__).parent / "spec.json").read_text(encoding="utf-8"))
            tracer = Tracer(spec["layers"], spec["untraced"])
            restore = tracer.install()
        error = code = None
        t0 = time.perf_counter()
        try:
            code = nacent.cli.main(sys.argv[2:])
        except (Exception, SystemExit) as exc:  # a crash is a failed run, not a harness fault
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        result.update(wall_s=wall, exit_code=code, error=error,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            restore()
            result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
