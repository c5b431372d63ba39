"""The zerosum benchmark: one command, seeded workloads, checked answers.

    python3 perfbench/run.py --workload witness-9n2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload is a closed loop with one client in one process and thread:
the next op starts only after the previous one returns.  The seed fixes a
work set of inputs; the run makes passes over it until the timed op time
reaches --seconds, building fresh library values for each pass outside the
timed region and checking every answer there too, against `oracle`.  With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one untraced and one traced
pass over the same work set.  Each run also writes a JSON record (with run
metadata) and, when traced, its spans under .perfbench_out/.

Exit status: 0 when every answer checked out, 1 when one did not (the
result line is still printed), 2 when the library is missing or the
arguments are invalid (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from inputs import digest
from tracing import LAYER_METRICS, RUNGS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99, 95, 90, 50)  # op_tail_ms takes the highest with >= 10 ops beyond it
FAILURE_NAMES = ("BudgetExceeded", "InfeasibleSize", "WitnessSearchExhausted")

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def fresh_import():
    """Import zerosum and all of its modules from scratch."""
    for name in [m for m in sys.modules if m == "zerosum" or m.startswith("zerosum.")]:
        del sys.modules[name]
    lib = importlib.import_module("zerosum")
    for info in pkgutil.iter_modules(lib.__path__):
        importlib.import_module(f"zerosum.{info.name}")
    return lib


def failure_types() -> tuple[type, ...]:
    """The library's 'gave up' exceptions, wherever they are defined."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "zerosum" or name.startswith("zerosum.")):
            found += [getattr(mod, n) for n in FAILURE_NAMES if isinstance(getattr(mod, n, None), type)]
    return tuple(set(found))


def setup(wl, seed: int):
    """Import, generate the work set and warm caches, SETUP_REPEATS times.

    Returns the median set-up time, each repeat scaled to reference speed by
    a calibration just before it, and the library, descriptions and op
    arguments of the last repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / calibrate()
        start = time.perf_counter()
        lib = fresh_import()
        descs = [wl.describe(seed, i) for i in range(wl.size)]
        args = [wl.prepare(lib, d) for d in descs]
        wl.warm(lib, seed)
        times.append((time.perf_counter() - start) * scale)
    return statistics.median(times), lib, descs, args


def call(fn, args, failures):
    try:
        return fn(*args)
    except failures as exc:
        return exc


class Tally:
    """Attempted ops, ops that gave up, and answers that failed a check."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.gave_up: dict[str, int] = {}
        self.wrong: list[str] = []

    def add(self, desc, answer) -> None:
        self.attempted += 1
        if isinstance(answer, BaseException):
            name = type(answer).__name__
            self.gave_up[name] = self.gave_up.get(name, 0) + 1
            return
        problem = self.wl.check(desc, answer)
        if problem is not None:
            self.wrong.append(f"{desc.encode()}: {problem}")

    @property
    def failed(self) -> int:
        return sum(self.gave_up.values()) + len(self.wrong)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest TAIL_PERCENTILES
    entry with at least ten samples beyond it; the maximum when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def timed_run(lib, wl, seconds: float, descs, args):
    """Passes over the work set until the timed op time reaches `seconds`.

    Each input's latency is the least of its passes: on a shared machine
    other tenants only ever add time (the same work swings by 1.8x within a
    minute on a 2-vCPU VM), and passes seconds apart rarely all meet a slow
    spell.  wall_s is the sum of those latencies, one pass at best speed.
    A spell that covers the whole run is measured by `calibrate` before each
    pass; the returned scale converts the run's times to reference speed."""
    failures = failure_types()
    tally = Tally(wl)
    best = [float("inf")] * len(descs)
    pass_s: list[float] = []
    cal_s: list[float] = []
    clock = time.perf_counter
    while not pass_s or sum(pass_s) < seconds:
        if args is None:
            args = [wl.prepare(lib, d) for d in descs]
        cal_s.append(calibrate())
        spent = 0.0
        for i, (desc, a) in enumerate(zip(descs, args)):
            start = clock()
            answer = call(wl.op, (lib, *a), failures)
            took = clock() - start
            best[i] = min(best[i], took)
            spent += took
            tally.add(desc, answer)
        pass_s.append(spent)
        args = None
    p, value, beyond = tail(best)
    metrics = {
        "wall_s": sum(best),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_tail_ms": 1e3 * value,
    }
    scale = REFERENCE_S / min(cal_s)
    notes = [f"{len(pass_s)} passes over {len(descs)} inputs, {min(pass_s):.4g} s to {max(pass_s):.4g} s each; "
             "wall_s is one pass at each input's best latency",
             f"op_tail_ms is p{p} of the {len(best)} per-input latencies ({beyond} beyond it)",
             f"times scaled by {scale:.4f}: calibration best {1e3 * min(cal_s):.4g} ms, "
             f"reference {1e3 * REFERENCE_S:.4g} ms"]
    return metrics, scale, tally, notes, {"tail_percentile": p, "tail_beyond": beyond,
                                          "passes": len(pass_s), "calibration_s": cal_s}


def traced_run(lib, wl, descs):
    """One untraced pass over the work set, then one traced pass."""
    failures = failure_types()
    plain = [wl.prepare(lib, d) for d in descs]
    again = [wl.prepare(lib, d) for d in descs]
    tally = Tally(wl)

    start = time.perf_counter()
    answers = [call(wl.op, (lib, *a), failures) for a in plain]
    untraced = time.perf_counter() - start
    for d, ans in zip(descs, answers):
        tally.add(d, ans)

    rungs = {r: 0 for r in RUNGS + ("unknown",)}
    tracer = Tracer()
    answers = []
    with tracer:
        start = time.perf_counter()
        for i, a in enumerate(again):
            if wl.traced_op is None:
                answers.append(call(tracer.op, (i, wl.op, lib, *a), failures))
            else:
                answers.append(call(tracer.op, (i, wl.traced_op, lib, *a, rungs), failures))
        traced = time.perf_counter() - start
    for d, ans in zip(descs, answers):
        tally.add(d, ans)

    metrics = tracer.layer_metrics()
    metrics.update({f"witnesses.rung.{r}": c for r, c in rungs.items()})
    metrics.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                    "trace.overhead_s": traced - untraced})
    return metrics, tally, tracer


# -- run metadata ----------------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": h.hexdigest()[:16],
    }


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "zerosum" / "__init__.py").is_file():
        print(f"no zerosum library under {ROOT / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    setup_s, lib, descs, op_args = setup(wl, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, tally, tracer = traced_run(lib, wl, descs)
        spans_path = OUT_DIR / f"spans-{stem}.jsonl"
        tracer.write(spans_path)
        units = dict(LAYER_METRICS)
        notes = [f"{len(descs)} inputs run untraced, then traced; "
                 f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}"]
        if tracer.absent:
            notes.append("absent from the library (reported as 0): " + ", ".join(tracer.absent))
        extra = {"absent": tracer.absent}
    else:
        measured, scale, tally, notes, extra = timed_run(lib, wl, args.seconds, descs, op_args)
        extra["unscaled"] = measured
        values = {k: v / scale if k == "ops_per_s" else v * scale for k, v in measured.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": metadata(),
        "inputs": {"count": len(descs), "digest": digest(d.encode() for d in descs)},
        "failed_ops": {"attempted": tally.attempted, "failed": tally.failed,
                       "gave_up": tally.gave_up, "wrong": tally.wrong[:20]},
        "metrics": metrics, **extra,
    }
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("meta " + json.dumps(record["meta"]))
    print(f"inputs {record['inputs']['count']} digest {record['inputs']['digest']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(line)
    share = tally.failed / tally.attempted
    print(f"failed_ops {tally.failed}/{tally.attempted} ({share:.4f}) gave_up {tally.gave_up or '{}'}")
    for line in tally.wrong[:20]:
        print("WRONG " + line)
    correct = not tally.wrong
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
