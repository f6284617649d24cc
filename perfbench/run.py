"""hardycap benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload sharpness --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports hardycap from ``src/``.  The
parent process only orchestrates: every workload runs in fresh
interpreters with one BLAS/OpenMP thread.  ``setup_s`` is the median over
several fresh interpreters of importing hardycap and building the
workload's first inputs.  The measured interpreter then runs passes over
the workload's op list in a closed loop (one client) for ``--seconds``,
checks every result, and reports its op times, scaled to a reference
machine speed (speed.py), and its peak memory.  With ``--trace 1`` it
instead runs half the time untraced and half traced and reports
per-layer metrics.  The last line of stdout is
one JSON object; see BENCHMARK.json for the metrics and README.md here
for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sharpness", "rearrangement", "cli-small")
#: fresh interpreters that only set up, before and again after the measured
#: one: set-up time drifts over tens of seconds on a shared machine
SETUP_SAMPLES = 4
#: passes a run makes at least, so that every op time is a median of three
MIN_PASSES = 3
#: op time between two machine-speed calibrations
BLOCK_S = 0.25
#: a run must end within this many seconds
RUN_LIMIT_S = 175.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "run"), default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# worker: one fresh interpreter


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_passes(ops, budget, first_op, tracer=None):
    """Closed loop over whole passes; a pass starts while time is left,
    and at least MIN_PASSES passes run.

    Ops run in blocks of at least BLOCK_S seconds of op time, with a
    machine-speed calibration between blocks (see speed.py); each op
    time is scaled by the mean factor of the calibrations around its
    block.  Returns the scaled op times of each pass, the failed ops and
    the calibration factors.
    """
    import speed

    perf = time.perf_counter
    passes, failures = [], []
    factors = [speed.factor()]
    op_id = first_op
    start = perf()
    while True:
        times, block_start, block_s = [], 0, 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            t = perf()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(perf() - t)
            block_s += times[-1]
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"op {op_id} {op.label}: {error}")
            op_id += 1
            if block_s >= BLOCK_S or i == len(ops) - 1:
                factors.append(speed.factor())
                scale = (factors[-2] + factors[-1]) / 2.0
                times[block_start:] = [x * scale for x in times[block_start:]]
                block_start, block_s = len(times), 0.0
        passes.append(times)
        if len(passes) >= MIN_PASSES and perf() - start >= budget:
            return passes, failures, factors


def op_times(passes):
    """Each op's median time over the passes of a run."""
    return [statistics.median(times) for times in zip(*passes)]


def _per_layer(names, tracer, passes, fixed):
    """Layer metrics per traced pass; ``fixed`` holds ratios and run totals."""
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in fixed:
            out[name] = fixed[name]
        elif kind == "self_s":
            out[name] = tracer.self_s.get(base, 0.0) / passes
        else:
            out[name] = tracer.counts.get(name, 0) / passes
    return out


def _ratio(num, base):
    return num / base if base else 0.0


def _run_probe(ops):
    failures = []
    for op in ops:
        try:
            error = op.check(op.run())
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.label}: {error}")
    return failures


def _traced(wl, args, result):
    """Half the time untraced, then half traced.

    Returns the op times per pass, the failures and the calibration
    factors of both halves; the layer metrics go into ``result``.
    """
    import spans
    from hardycap import sphere

    plain, failures, factors = _run_passes(wl.ops, args.seconds / 2, 0)
    tracer = spans.Tracer()
    cache0 = sphere._cap_eta_profile.cache_info()
    undo = tracer.install()
    try:
        traced, traced_failures, traced_factors = _run_passes(
            wl.ops, args.seconds / 2, len(plain) * len(wl.ops), tracer)
    finally:
        spans.Tracer.uninstall(undo)
    cache1 = sphere._cap_eta_profile.cache_info()
    hits, misses = cache1.hits - cache0.hits, cache1.misses - cache0.misses
    result["peak_rss_mb"] = _peak_rss_mb()
    probe_failures = _run_probe(wl.probe)

    c = tracer.counts
    passes = len(traced)
    levels = c["sphere.spherical_rearrangement.levels"]
    fixed = {
        "quadrature.refine.redundant_ratio":
            _ratio(c["tail_panels_under_quotient"], c["quotient_panels"]),
        "quadrature.refine.quotient_panels": c["quotient_panels"] / passes,
        "sphere.inverse_cap_volume.calls_per_level":
            _ratio(c["sphere.inverse_cap_volume.calls"], levels),
        "sphere.cap_volume.calls_per_level": _ratio(c["sphere.cap_volume.calls"], levels),
        "sphere.cap_profile_cache.hit_ratio": _ratio(hits, hits + misses),
        "sphere.cap_profile_cache.lookups": (hits + misses) / passes,
        "cli.full_range.failed_ratio": _ratio(len(probe_failures), len(wl.probe)),
        "cli.full_range.ops": len(wl.probe),
        "trace.overhead_s": sum(op_times(traced)) - sum(op_times(plain)),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    result["per_layer"] = _per_layer(names, tracer, passes, fixed)
    result["untraced_passes"] = len(plain)
    result["probe_failures"] = probe_failures
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    result["spans"] = len(tracer.spans)
    return plain + traced, failures + traced_failures, factors + traced_factors


def worker(args):
    import warnings

    # overflow warnings of the full-range cli probe are expected noise
    warnings.simplefilter("ignore", RuntimeWarning)
    with open(os.path.join(HERE, "reference.json")) as fh:
        refs = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import hardycap

    if not os.path.abspath(hardycap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hardycap imported from {hardycap.__file__}, not {SRC}")
    import workloads

    wl = workloads.BY_NAME[args.workload](args.seed, refs)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.worker == "run":
        if args.trace:
            passes, failures, factors = _traced(wl, args, result)
        else:
            passes, failures, factors = _run_passes(wl.ops, args.seconds, 0)
            result["peak_rss_mb"] = _peak_rss_mb()  # before the untimed probe
            result["probe_failures"] = _run_probe(wl.probe)
        result.update(passes=passes, failures=failures, factors=factors,
                      probe_ops=len(wl.probe))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# parent


def _child(args, mode, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--worker", mode]
    env = dict(os.environ, **THREAD_ENV)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=max(timeout, 1.0), text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    args = parse_args(argv)
    if args.worker:
        worker(args)
        return 0
    if not os.path.isfile(os.path.join(SRC, "hardycap", "__init__.py")):
        print(f"error: no hardycap package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    def set_up():
        return [] if args.trace else [
            _child(args, "setup", deadline - time.monotonic())["setup_s"]
            for _ in range(SETUP_SAMPLES)]

    setups = set_up()
    res = _child(args, "run", deadline - time.monotonic())
    setups += [res["setup_s"]] + set_up()

    passes, failures = res["passes"], res["failures"]
    per_pass = len(passes[0])
    ops, failed = per_pass * len(passes), len(failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {ops} ops in {len(passes)} passes of {per_pass} ops "
          f"(closed loop, one client); {failed} failed")
    for msg in failures[:10]:
        print(f"  FAILED {msg}")
    if res["probe_ops"]:
        print(f"  full-range cli probe (untimed): {len(res['probe_failures'])} of "
              f"{res['probe_ops']} ops fail")
        for msg in res["probe_failures"]:
            print(f"    {msg}")

    if args.trace:
        print(f"  {res['untraced_passes']} untraced then "
              f"{len(passes) - res['untraced_passes']} traced passes; "
              f"{res['spans']} spans written under perfbench/out/")
        metrics = {}
        for name, unit in _units("per_layer").items():
            value = res["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:46s} {value:.6g} {unit}")
    else:
        per_op = op_times(passes)
        samples = [t for times in passes for t in times]
        tail, pct, beyond = tail_percentile(samples)
        values = {
            "setup_s": (statistics.median(setups), f"median of {len(setups)} interpreters"),
            "wall_s": (sum(per_op), f"sum over the {per_pass} ops of a pass, "
                                    "each at its median"),
            "op_p50_s": (statistics.median(samples), f"median of {ops} op runs"),
            "op_tail_s": (tail, f"p{pct:.1f} of {ops} op runs, {beyond} beyond it"),
            "peak_rss_mb": (res["peak_rss_mb"], "ru_maxrss of the measured interpreter"),
        }
        factors = res["factors"]
        print(f"  op times at reference speed: x{statistics.median(factors):.3f} "
              f"(median of {len(factors)} calibrations, range "
              f"{min(factors):.3f}-{max(factors):.3f})")
        metrics = {}
        for name, unit in _units("end_to_end").items():
            value, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:12s} {value:.6g} {unit}  ({note})")
        print(f"  failed_ratio {failed / ops:.6g}  ({failed} of {ops} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
