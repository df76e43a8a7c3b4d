"""One benchmark worker: a fresh interpreter that plays one workload.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload and seed, and whether to trace, to run only the
known-defect probes, or to stop after the import (set-up only).  The worker
imports ballcell from the checkout's src/ and plays the request list
in-process through ``ballcell.cli.run``: one cold pass that pays every table
build, then warm replays against the filled module caches.  Between requests
it times a fixed reference computation every REFERENCE_EVERY_S, so that
run.py can scale its times to one machine speed.  It checks the outputs
after the passes and prints one JSON line with its measurements.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ballcell.cli  # noqa: E402

SETUP_S = time.perf_counter() - _STARTED

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# The warm list is replayed until the replays add up to this long, and
# warm_wall_s is their mean, so a short warm pass is not one noisy sample.
WARM_MIN_S = 1.5
# A shared host changes speed within seconds, so the reference is sampled
# often enough to follow it; its own time is left out of the passes.
REFERENCE_EVERY_S = 0.25
TRACE_DIR = ROOT / ".perfbench_out"


_BIG_A, _BIG_B = 3**3000, 7**2500


def reference_s() -> float:
    """Wall time of a fixed stdlib-only computation that shares no code with
    ballcell: about half small-object work (Fractions, dict updates, a JSON
    dump) and half big-integer gcds, the two kinds of work the workloads do,
    with the collector off so the heap of the process under test does not
    change it.  It measures how fast the machine runs right now."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for j in range(1, 160):
            acc += Fraction(j, j * j + 1)
        table = {}
        for i in range(40000):
            table[i % 1009] = table.get(i % 1009, 0) + i * i
        json.dumps({str(k): [v, str(v)] for k, v in table.items()}, sort_keys=True)
        for k in range(30):
            math.gcd(_BIG_A * _BIG_B + k, _BIG_A + _BIG_B + k)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _send(argv: list[str]) -> tuple:
    """One request through the CLI entry point: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ballcell.cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed request, recorded with its traceback
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def play(requests: list[list[str]], tracer, first: int, references: list[float]) -> dict:
    """A closed loop with one client: each request is sent when the previous
    one has returned.  Between requests, at most every REFERENCE_EVERY_S, a
    reference sample is appended to `references`; its time is left out of
    the pass."""
    latencies, outputs = [], []
    started = last = time.perf_counter()
    skipped = 0.0
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = first + i
        sent = time.perf_counter()
        outputs.append(_send(argv))
        done = time.perf_counter()
        latencies.append(done - sent)
        if done - last >= REFERENCE_EVERY_S:
            references.append(reference_s())
            last = time.perf_counter()
            skipped += last - done
    return {"wall_s": time.perf_counter() - started - skipped, "latencies": latencies, "outputs": outputs}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten requests beyond
    it: the eleventh largest latency, or the largest when there are fewer."""
    ranked = sorted(latencies)
    index = len(ranked) - 11 if len(ranked) > 10 else len(ranked) - 1
    return 100.0 * (index + 1) / len(ranked), ranked[index]


def digest(stdout: str, code) -> str:
    return hashlib.sha256(f"{code}\0{workloads.strip_timing(stdout)}".encode()).hexdigest()[:16]


def _layer_metrics(tracer, cold: dict, n: int) -> dict:
    """Self time per layer over the cold pass and, prefixed `warm.`, over the
    first warm replay; counts and ratios over the cold pass."""
    metrics = {}
    for prefix, requests in (("", range(n)), ("warm.", range(n, 2 * n))):
        selfs = tracer.self_times(requests)
        selfs["game.rows"] += selfs.pop("game.symbolic_rows", 0.0)
        metrics.update({f"{prefix}{layer}_s": selfs.get(layer, 0.0) for layer in tracing.TIMED_LAYERS})
    calls, notes = tracer.tally(range(n))

    def ratio(a, b):
        return a / b if b else 0.0

    metrics.update({
        "polys.gcd_calls": calls["polys.gcd"],
        "polys.gcd_nontrivial_ratio": ratio(notes["polys.gcd"], calls["polys.gcd"]),
        "polys.gcd2_calls": calls["polys.gcd2"],
        "polys.div_exact_calls": calls["polys.div_exact"],
        "polys.div_exact_hit_ratio": ratio(notes["polys.div_exact"], calls["polys.div_exact"]),
        "game.row_calls": calls["game.rows"],
        "game.symbolic_row_calls": calls["game.symbolic_rows"],
        "montecarlo.games": calls["montecarlo.play"],
        "montecarlo.rounds": notes["montecarlo.play"],
        "montecarlo.rounds_per_s": ratio(notes["montecarlo.play"], metrics["montecarlo.play_s"]),
        "cli.output_bytes": sum(len(out[1].encode()) for out in cold["outputs"]),
        "ratfuncs.max_coeff_digits": max(workloads.max_coeff_digits(out[1]) for out in cold["outputs"]),
    })
    return metrics


def run(spec: dict) -> dict:
    name, seed, tiny = spec["workload"], spec["seed"], spec.get("tiny", False)
    requests = workloads.build(name, seed, tiny)
    tracer = tracing.Tracer() if spec.get("trace") else None
    references = [reference_s()]
    with tracer if tracer is not None else contextlib.nullcontext():
        cold = play(requests, tracer, 0, references)
        warm = [play(requests, tracer, len(requests), references)]
        while sum(p["wall_s"] for p in warm) < WARM_MIN_S:
            warm.append(play(requests, tracer, len(requests) * (len(warm) + 1), references))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is outside the timed passes.
    failures = []
    context = workloads.rendering_context(requests, cold["outputs"])
    recorded = None
    if seed == workloads.DEFAULT_SEED and not tiny and not spec.get("record") and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(name)
    digests = [digest(out[1], out[0]) for out in cold["outputs"]]
    for i, argv in enumerate(requests):
        code, stdout, stderr = cold["outputs"][i]
        try:
            reason = workloads.check(argv, code, stdout, context)
        except Exception:  # a checker crash on odd output is a failed check
            reason = "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        if reason is not None and stderr:
            reason += ": " + stderr.strip().splitlines()[-1]
        if reason is None and recorded is not None and recorded[i] != digests[i]:
            reason = "output digest differs from the one recorded for the default seed"
        if reason is not None:
            failures.append({"index": i, "argv": argv, "pass": "cold", "reason": reason})
        for k, replay in enumerate(warm):
            warm_code, warm_stdout, _ = replay["outputs"][i]
            if (warm_code, workloads.strip_timing(warm_stdout)) != (code, workloads.strip_timing(stdout)):
                failures.append({"index": i, "argv": argv, "pass": f"warm {k + 1}",
                                 "reason": "warm output differs from cold output"})

    tail_pct, tail_s = tail(cold["latencies"])
    result = {
        "workload": name,
        "seed": seed,
        "requests": len(requests),
        "setup_s": SETUP_S,
        "reference_s": statistics.median(references),
        "reference_samples": len(references),
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": statistics.fmean(p["wall_s"] for p in warm),
        "latency_p50_ms": 1000 * statistics.median(cold["latencies"]),
        "latency_tail_ms": 1000 * tail_s,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb,
        "attempted": (1 + len(warm)) * len(requests),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, cold, len(requests))
        result["layer_walls"] = [cold["wall_s"], warm[0]["wall_s"]]
        tracer.write(TRACE_DIR / f"spans-{name}-{seed}.csv.gz")
    return result


def run_probes(spec: dict) -> list[dict]:
    """The known-defect probes of a workload, each with its outcome."""
    out = []
    for argv in workloads.probes(spec["workload"], spec["seed"]):
        code, stdout, stderr = _send(argv)
        out.append({
            "argv": argv,
            "status": workloads.probe_status(argv, code, stdout, stderr),
            "exit": code,
            "error": stderr.strip().splitlines()[-1] if stderr.strip() else "",
        })
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    if not Path(ballcell.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ballcell imported from {ballcell.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": SETUP_S, "reference_s": statistics.median(reference_s() for _ in range(3))}))
        return 0
    print(json.dumps({"probes": run_probes(spec)} if spec.get("probes_only") else run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
