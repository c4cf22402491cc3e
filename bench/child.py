"""One benchmark process: import the gaugeqed CLI, then run it once.

    python3 bench/child.py MODE RESULT SRC [CLI ARGV...]

MODE is ``probe`` (stop once the CLI is imported and argv is built),
``run`` (then call ``cli.main(argv)`` untraced), ``trace`` (the same with
the tracer installed; spans go to RESULT + ".spans") or ``env`` (report the
numeric stack).  RESULT receives JSON with the monotonic clock readings the
parent turns into set-up and wall times.  The exit code is the CLI's.
"""

import json
import sys
import time


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    mode, result_path, src = sys.argv[1:4]
    sys.path.insert(0, src)
    from gaugeqed import cli

    argv = list(sys.argv[4:])
    t_ready = time.monotonic()
    if not cli.__file__.startswith(src):
        print(f"gaugeqed imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    result = {"t_ready": t_ready}
    rc = 0
    if mode == "env":
        result["env"] = _environment()
    elif mode == "run":
        rc = cli.main(argv)
    elif mode == "trace":
        import tracer

        tr = tracer.Tracer()
        tr.install()
        try:
            rc = cli.main(argv)
        finally:
            tr.uninstall()
        with open(result_path + ".spans", "w") as fh:
            json.dump([s.as_list() for s in tr.spans if s.end is not None], fh)
    elif mode != "probe":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 3
    result["t_done"] = time.monotonic()
    result["rc"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
