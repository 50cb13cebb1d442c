"""One benchmark client: a fresh interpreter that runs one workload's ops.

Started by ``run.py``; not meant to be run by hand.  The process imports
``polystokes.cli``, runs the warm-up op and records its set-up time against
the launch time the parent passed in (CLOCK_MONOTONIC is shared by all
processes).  It then runs whole cycles of ops, closed loop with no think time,
and stops at the cycle end nearest to ``--seconds`` of op time, or after
exactly ``--count`` ops.  Each
op is ``polystokes.cli.main(argv)`` with its output captured; an exception or
a nonzero exit code is recorded with the output.  Results go to files in the
work directory, one JSON line per op, so that memory does not grow with the
number of ops.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time


def execute(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse errors exit
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # an op that raises is a failed op, not a dead client
        exc = "%s: %s" % (type(e).__name__, e)
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), exc


def _blas_threads():
    """Thread count reported by every OpenBLAS the process has loaded."""
    import ctypes
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment():
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    from polystokes import cli
    with open(os.path.join(args.workdir, "warmup.json"), encoding="utf-8") as fh:
        warm = json.load(fh)
    _, rc, _, err, exc = execute(cli, warm["argv"])
    setup_s = time.monotonic() - args.launched
    if exc is not None or rc != 0:
        raise SystemExit("warm-up op failed: %s %s" % (exc, err))
    summary = {"setup_s": setup_s}
    if not args.setup_only:
        summary.update(_timed(cli, args))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def _timed(cli, args):
    import tracer as tracing
    import workloads
    items = workloads.items_for(args.workload, args.seed)
    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        tr.install()
    latencies = []
    busy = 0.0
    cycle = 0
    stop = False
    with open(args.out + ".ops", "w", encoding="utf-8") as log:
        while not stop:
            ops = workloads.cycle_ops(args.workload, args.seed, cycle, items)
            cycle_start = busy
            paths = {}
            for i, op in enumerate(ops):
                if "doc" in op and op["doc"] not in paths:
                    paths[op["doc"]] = os.path.join(args.workdir, "c%d-%d.domain" % (cycle, i))
                    with open(paths[op["doc"]], "w", encoding="utf-8") as fh:
                        fh.write(op["doc"])
            for i, op in enumerate(ops):
                if args.count is not None and len(latencies) >= args.count:
                    stop = True
                    break
                argv = workloads.resolve_argv(op, paths.get(op.get("doc")))
                if tr is not None:
                    tr.op = len(latencies)
                lat, rc, out, err, exc = execute(cli, argv)
                if tr is not None:
                    tr.op = None
                latencies.append(lat)
                busy += lat
                log.write(json.dumps({"cycle": cycle, "index": i, "latency": lat, "rc": rc,
                                      "out": out, "err": err, "exc": exc}) + "\n")
                # a program many times slower than today's still ends in time
                if args.count is None and busy >= 3 * args.seconds:
                    stop = True
                    break
            for path in paths.values():
                os.remove(path)
            cycle += 1
            # stop at the cycle end nearest to the time budget
            if args.count is None and busy + (busy - cycle_start) / 2 >= args.seconds:
                stop = True
            if args.count is not None and len(latencies) >= args.count:
                stop = True
    result = {"latencies": latencies, "busy_s": busy, "cycles": cycle,
              "env": environment()}
    if tr is not None:
        tr.uninstall()
        result["layers"] = tr.layer_metrics(len(latencies))
        tr.dump(os.path.join(args.workdir, "spans.json"))
    return result


if __name__ == "__main__":
    main()
