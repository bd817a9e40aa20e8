"""One workload command in a fresh interpreter.

Usage: ``python3 child.py SPEC_JSON``, where the spec holds ``src`` (the
checkout's ``src`` directory), ``argv`` (the isodag command), ``trace``,
``record`` and ``spawned`` (the ``time.monotonic()`` reading the parent took
just before starting this process; that clock is shared by all processes).

Prints one JSON object: the command's exit code and standard output, its
set-up time (process start to entering ``isodag.cli.main``), wall and CPU
time inside ``main``, peak RSS, and with tracing the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    """User plus system CPU of this process, all its threads and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    blas = {k: v for k, v in blas.items() if "directory" not in k}   # no host paths
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.dont_write_bytecode = True   # write nothing into the checkout's src
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import isodag.cli

    if not os.path.realpath(isodag.cli.__file__).startswith(src + os.sep):
        print(f"isodag was imported from {isodag.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    cpu0 = _cpu_s()
    entered = time.monotonic()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            rc = isodag.cli.main(spec["argv"])
        else:
            rc = tracer.call(isodag.cli.main, "cli", spec["argv"])
    wall = time.monotonic() - entered
    cpu = _cpu_s() - cpu0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"rc": rc, "stdout": out.getvalue(), "setup_s": entered - spec["spawned"],
              "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    if spec["record"]:
        result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
