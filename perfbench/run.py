"""The polystokes benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload domains --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are taken from this
file).  The program is imported from ``src/`` next to this directory.

A run starts one client process (``worker.py``) that imports
``polystokes.cli``, runs a warm-up op, then runs whole cycles of the
workload's ops back to back and stops at the cycle end nearest to
``--seconds`` of op time.  With
``--trace 0`` four more fresh interpreters repeat only the set-up, and the run
reports

* ``ops_per_s``   ops completed per second of op time, the median over the
                  run's cycles,
* ``op_p50_ms``   median op latency,
* ``setup_s``     median over five fresh interpreters of the time to import
                  ``polystokes.cli`` and finish the warm-up op,
* ``peak_rss_mb`` peak resident set of the client process.

With ``--trace 1`` a second client replays exactly the ops of the first with
every layer entry point wrapped (``tracer.py``); the run reports the per-layer
counts and times per op, and ``trace.overhead_share``, the traced client's op
time over the untraced one's, minus one.  The traced outputs must be
byte-identical to the untraced ones.

Every op's output is checked against a reference (``oracle.py``).  The lines
before the last one give the failure share with its counts, each failure,
the sample count behind the median and the environment.  The last line is the
JSON result; ``correct`` is true when no op failed.  The exit code is 0 when
the run completed, whatever the checks found; it is nonzero when the program
cannot be imported or a client dies.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

# set-up time must not depend on bytecode caches left by earlier runs
sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "polystokes", "cli.py")):
    # never measure an installed copy in place of the checkout's source
    raise SystemExit("no program source at %s" % os.path.join(SRC, "polystokes"))
sys.path.insert(0, SRC)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
CLIENT_TIMEOUT = 170.0
# one BLAS thread, never more than nproc: on the 2-core machine the benchmark
# was built on, two threads made the solver no faster (nproc is recorded with
# every result)
CLIENT_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
              "PYTHONHASHSEED": "0"}


def _client(args, workdir, tag, extra):
    """Run one worker process to completion.

    Returns its summary, its op records and its peak resident set in MB,
    taken from the child's own resource usage (``wait4``)."""
    out = os.path.join(workdir, tag + ".json")
    log = os.path.join(workdir, tag + ".log")
    env = dict(os.environ, **CLIENT_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--out", out] + extra
    with open(log, "w", encoding="utf-8") as fh:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd + ["--launched", repr(launched)], stdout=fh,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CLIENT_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit("client %s exited with %d" % (tag, proc.returncode))
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    ops = []
    if os.path.exists(out + ".ops"):
        with open(out + ".ops", encoding="utf-8") as fh:
            ops = [json.loads(line) for line in fh]
    return summary, ops, usage.ru_maxrss / 1024.0


def _check(workload, seed, items, records):
    """Check every op; returns a list of (op number, reason, label)."""
    failures = []
    ops_by_cycle = {}
    refs, scans = {}, {}
    for n, rec in enumerate(records):
        k = rec["cycle"]
        if k not in ops_by_cycle:
            ops_by_cycle[k] = workloads.cycle_ops(workload, seed, k, items)
        meta = ops_by_cycle[k][rec["index"]]["meta"]
        try:
            if rec["exc"] is not None or rec["rc"] != 0:
                raise oracle.Failure("op raised or exited nonzero: %s %s %s"
                                     % (rec["rc"], rec["exc"], rec["err"][-300:]))
            if workload == "pencils":
                oracle.check_pencil(meta, rec["out"], workloads.PENCIL_WINDOW)
                continue
            i, kind = meta["item"], meta["kind"]
            if k == 0:
                refs[(i, kind)] = rec["out"]
            elif (i, kind) not in refs:
                raise oracle.Failure("the unmoved copy has no result to compare with")
            else:
                oracle.check_moved(rec["out"], refs[(i, kind)])
            if kind == "scan":
                scans[(k, i)] = rec["out"]
            elif kind == "point":
                if (k, i) not in scans:
                    raise oracle.Failure("the scan of the same domain has no result")
                oracle.check_agreement(rec["out"], scans[(k, i)], items[i]["s"])
            else:
                poly = items[i]["poly"]
                oracle.check_numeric(rec["out"], (items[i]["bc"][0],) * 2, poly.edges[0].theta)
        except oracle.Failure as f:
            failures.append((n, str(f), f.label))
        except (ValueError, KeyError, TypeError) as e:  # unparsable output
            failures.append((n, "malformed output: %s: %s" % (type(e).__name__, e), None))
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workdir = os.path.join(HERE, ".work", "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))


def _run(args, workdir):
    items = workloads.items_for(args.workload, args.seed)
    warm = workloads.warmup_op(args.workload, args.seed, items)
    warm_path = os.path.join(workdir, "warmup.domain")
    if "doc" in warm:
        with open(warm_path, "w", encoding="utf-8") as fh:
            fh.write(warm["doc"])
    with open(os.path.join(workdir, "warmup.json"), "w", encoding="utf-8") as fh:
        json.dump({"argv": workloads.resolve_argv(warm, warm_path)}, fh)

    main_summary, ops, rss_mb = _client(args, workdir, "client",
                                        ["--seconds", str(args.seconds)])
    latencies = main_summary["latencies"]
    failures = _check(args.workload, args.seed, items, ops)

    if args.trace:
        traced, traced_ops, _ = _client(args, workdir, "traced",
                                        ["--count", str(len(ops)), "--trace", "1"])
        if len(traced_ops) != len(ops):
            raise SystemExit("traced client ran %d ops, not %d" % (len(traced_ops), len(ops)))
        for n, (a, b) in enumerate(zip(ops, traced_ops)):
            if (a["out"], a["rc"], a["exc"]) != (b["out"], b["rc"], b["exc"]):
                failures.append((n, "traced output differs from the untraced one", None))
        metrics = dict(traced["layers"])
        metrics["trace.overhead_share"] = traced["busy_s"] / main_summary["busy_s"] - 1.0
        kept = os.path.join(HERE, ".work", "trace-%s-seed%d.json" % (args.workload, args.seed))
        shutil.move(os.path.join(workdir, "spans.json"), kept)
        print("spans written to %s" % os.path.relpath(kept, ROOT))
    else:
        setups = [main_summary["setup_s"]]
        for j in range(SETUPS - 1):
            summary, _, _ = _client(args, workdir, "setup-%d" % j, ["--setup-only"])
            setups.append(summary["setup_s"])
        metrics = {
            "ops_per_s": statistics.median(_cycle_rates(ops)),
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        print("setup_s samples: %s" % ", ".join("%.4f" % s for s in setups))
    units = _units()

    attempted, failed = len(ops), len({n for n, _, _ in failures})
    known = {n for n, _, label in failures if label in oracle.KNOWN_DEFECTS}
    print("workload %s, seed %d: %d ops in %d cycles, %.3f s of op time"
          % (args.workload, args.seed, attempted, main_summary["cycles"],
             main_summary["busy_s"]))
    print("op latency: median over %d samples%s" % (len(latencies), _tail(latencies)))
    print("fail_share: %.6f (%d failed of %d attempted; %d of a known defect)"
          % (failed / attempted, failed, attempted, len(known)))
    for n, reason, label in failures:
        print("  failed op %d [%s]: %s" % (n, label or "unexplained", reason[:400]))
    print("env: %s" % json.dumps(dict(main_summary["env"], seed=args.seed), sort_keys=True))
    for name in sorted(metrics):
        print("%-32s %.6g %s" % (name, metrics[name], units.get(name, "")))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _cycle_rates(records):
    """Ops per second of op time in each cycle: a median over cycles is not
    moved by one cycle that a busy host slowed down."""
    cycles = {}
    for rec in records:
        n, t = cycles.get(rec["cycle"], (0, 0.0))
        cycles[rec["cycle"]] = (n + 1, t + rec["latency"])
    return [n / t for n, t in cycles.values()]


def _tail(latencies):
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    for q in (99, 90):
        if len(latencies) * (100 - q) / 100.0 >= 10:
            cut = statistics.quantiles(latencies, n=100)[q - 1]
            return "; p%d %.3f ms" % (q, 1000.0 * cut)
    return "; too few samples for a tail percentile"


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    main()
