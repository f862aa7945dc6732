"""alexdb benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload grid-read --seed 1 --seconds 30 --trace 0

The engine is imported from the checkout's ``src/``; without it the run
stops with exit code 2 and prints no result.  One client sends operations
in a closed loop, one at a time with no think time, in a single process and
thread.  Inputs and operations come from ``--seed`` (``plan.py``); expected
answers come from a separate oracle process (``oracle.py``).

``--trace 0`` sends the same fixed set of decks (a pass) again and again
until ``--seconds`` have passed, at least ``MIN_PASSES`` times, and sets the
workload up again between passes.  Each operation's latency is its median
over the passes, ``setup_s`` is the median of the set-ups, and both are
scaled to a nominal host speed by a calibration kernel timed between
operations (``calibrate.py``).  ``--trace 1`` sets up once, runs the
doubling sweep (``sweep.py``), then sends a fixed number of decks, each
once untraced and once with every layer wrapped (``spans.py``), and
reports the per-layer metrics.  The last line of standard output is one
JSON object.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A pass is this many decks: enough operations for the percentiles to fall
# inside clusters of like operations (see plan.py), yet short enough for
# three or more passes in a 30-second run, so each operation's median is
# taken over attempts spread across the run.
PASS_DECKS = {"grid-read": 3, "document-history": 1, "cli-lod": 2}
MIN_PASSES = 3
SETUP_SLICE_S = 0.3  # set up again until this long between passes, so cheap set-ups repeat more
TRACE_DECKS = {"grid-read": 2, "document-history": 2, "cli-lod": 2}
ORACLE_TIMEOUT_S = 120


@dataclasses.dataclass
class Record:
    deck: int  # index of the deck in the plan
    pos: int  # position of the operation in its deck
    kind: str
    cls: str
    ms: float
    status: str  # "ok", "failed" (raised) or "wrong" (answer differs)
    detail: str = ""


def _loop(w, state, p, answers, decks: int, first: int = 0, tracer=None, calib=None) -> list:
    """Send ``decks`` whole decks, from deck ``first`` of the plan on.

    ``calib``, when given, times its kernel between operations.
    """
    records = []
    for i in range(first, first + decks):
        k = i % len(p.decks)
        w.start_deck(state)
        for pos, (op, want) in enumerate(zip(p.decks[k], answers[k])):
            kind = op["op"]
            call = w.prepare(state, op)
            error = None
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(kind, call) if tracer is not None else call()
            except Exception as exc:  # an operation that raises is a failure; keep going
                error = exc
            ms = (time.perf_counter() - t0) * 1e3
            if error is not None:
                status, detail = "failed", f"{type(error).__name__}: {str(error)[:100]}"
            else:
                try:
                    detail = w.check(state, op, result, want)
                except Exception as exc:  # a result of an unexpected shape is a wrong answer
                    detail = f"{kind}: unexpected result, {type(exc).__name__}: {exc}"
                status, detail = ("wrong", detail) if detail else ("ok", "")
            records.append(Record(k, pos, kind, w.classes.get(kind, "command"), ms, status, detail))
            if calib is not None:
                calib.tick()
        w.end_deck(state)
    return records


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _typical(records: list) -> list:
    """Each operation's median time over the passes, from its attempts that
    succeeded, or from all of them when none did, as ``(ok, ms, record)``."""
    attempts = defaultdict(list)
    for r in records:
        attempts[(r.deck, r.pos)].append(r)
    out = []
    for rs in attempts.values():
        ok = [r for r in rs if r.status == "ok"]
        out.append((bool(ok), statistics.median(r.ms for r in (ok or rs)), rs[0]))
    return out


def _report(records: list) -> None:
    """Latency per class and failures per operation kind, for people."""
    by_class = defaultdict(list)
    for ok, ms, r in _typical(records):
        if ok:
            by_class[r.cls].append(ms)
    for cls, ms in sorted(by_class.items()):
        p90 = f"{_p90(ms):.2f}" if len(ms) > 1 else "-"
        print(f"class {cls}: n={len(ms)} p50={statistics.median(ms):.2f} ms p90={p90} ms")
    failures = Counter((r.kind, r.status) for r in records if r.status != "ok")
    first = {}
    for r in records:
        first.setdefault((r.kind, r.status), r.detail)
    for (kind, status), n in sorted(failures.items()):
        print(f"{status} {kind}: {n} of {sum(1 for r in records if r.kind == kind)}"
              f" -- {first[(kind, status)]}")


def _end_to_end(records: list, setup_times: list, store_bytes: int) -> dict:
    """Time metrics: each operation's median over the passes.

    A failed operation's time counts in ``ops_per_s`` but not in the
    percentiles.
    """
    typical = _typical(records)
    ok = [ms for good, ms, _ in typical if good]
    if len(ok) < 2:
        raise SystemExit("fewer than two operations succeeded; no latency to report")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ok) / sum(ms for _, ms, _ in typical) * 1e3, "op/s"),
        "latency_p50_ms": (statistics.median(ok), "ms"),
        "latency_p90_ms": (_p90(ok), "ms"),
        "ok_rate": (sum(r.status == "ok" for r in records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "store_bytes": (store_bytes, "B"),
    }


def _set_up(w, p, directory: Path):
    """A fresh set-up in ``directory``: the state and the seconds it took."""
    shutil.rmtree(directory, ignore_errors=True)
    t0 = time.perf_counter()
    state = w.setup(p, directory)
    return state, time.perf_counter() - t0


def _oracle(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=ORACLE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"oracle failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description="alexdb benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["grid-read", "document-history", "cli-lod"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "alexdb" / "__init__.py").is_file():
        print(f"no engine source at {SRC / 'alexdb'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import calibrate
    import plan as planmod
    import spans
    import sweep
    from workloads import WORKLOADS, store_bytes

    w = WORKLOADS[args.workload]
    p = planmod.make(args.workload, args.seed)
    expected = _oracle(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        start = time.perf_counter()
        state, first_setup = _set_up(w, p, workdir / "setup")
        w.client_state(state, p)
        problems = expected["problems"] + w.validate(state, p)
        if problems:
            print("generated input is invalid:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        answers = expected["decks"]

        if not args.trace:
            # each pass, and the set-ups after it, scaled by the kernel's
            # median over that stretch, so a change in the host's speed
            # during the run is followed
            calib = calibrate.Calibration()
            records, setup_times, scales, pending = [], [], [], [first_setup]
            while len(scales) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                since = len(calib.times)
                done = _loop(w, state, p, answers, PASS_DECKS[args.workload], calib=calib)
                spent = 0.0
                while spent < SETUP_SLICE_S:
                    pending.append(_set_up(w, p, workdir / "again")[1])
                    spent += pending[-1]
                    calib.tick()
                calib.tick(force=True)
                scales.append(calib.scale(since))
                records += [dataclasses.replace(r, ms=r.ms * scales[-1]) for r in done]
                setup_times += [t * scales[-1] for t in pending]
                pending = []
            print(f"{len(scales)} passes of {PASS_DECKS[args.workload]} deck(s), "
                  f"{len(setup_times)} set-ups, {len(calib.times)} calibrations: kernel median "
                  f"{calibrate.NOMINAL_MS / calib.scale():.2f} ms; times scaled by "
                  f"{min(scales):.3f}-{max(scales):.3f} per pass")
            metrics = _end_to_end(records, setup_times, store_bytes(state.store_dir))
        else:
            metrics = sweep.run(args.seed, workdir / "sweep")
            # each deck untraced, then the same deck traced, so that a change
            # in the host's speed during the run hits both sides alike
            tracer = spans.Tracer()
            plain, traced, growth = [], [], 0
            for i in range(TRACE_DECKS[args.workload]):
                plain += _loop(w, state, p, answers, decks=1, first=i)
                before = getattr(state, "round_growth", 0)
                tracer.install()
                try:
                    traced += _loop(w, state, p, answers, decks=1, first=i, tracer=tracer)
                finally:
                    tracer.uninstall()
                growth += getattr(state, "round_growth", 0) - before
            metrics.update(tracer.layer_metrics(growth))
            # the same operations both times, so the ratio of their busy times
            # is the ratio of the two ops_per_s
            metrics["trace.overhead"] = (sum(r.ms for r in traced) / sum(r.ms for r in plain) - 1,
                                         "ratio")
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.csv")
            records = plain + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report(records if not args.trace else plain)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not any(r.status == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
