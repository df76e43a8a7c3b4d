"""Benchmark of the ballcell command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py                  # all four workloads, end-to-end metrics
    python3 perfbench/run.py --trace 1        # all four, plus per-layer metrics
    python3 perfbench/run.py --workload numeric_pgf --seed 7 --seconds 14 --trace 0

Each workload is a fixed list of `ballcell` requests (see workloads.py),
issued in-process through ``ballcell.cli.run`` by a closed loop with one
client.  Every worker is a fresh interpreter that imports ballcell from the
checkout's src/ and plays the list cold, paying the table builds a fresh CLI
process pays, then replays it warm against the filled module caches.  One
worker runs at a time; workers repeat until --seconds have passed and each
end-to-end metric is the median over them, scaled to one machine speed
(REFERENCE_S).  The known-defect probes run in one more worker after the
timed ones.  Set-up time is the median import time over the workers and
SETUP_SAMPLES more fresh interpreters, half of them started before the
workers and half after.  With --trace 1 one more worker runs with every
public function of the package wrapped (tracer.py) and reports per-layer
self times and counts, as measured.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Everything above it is the same report for people, with units,
the tail percentile and its sample count, every failure and the known-defect
probes with their error text.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 170
# No new worker starts once the run could pass this many seconds, which
# keeps a run inside three minutes.
RUN_LIMIT_S = 140

# Typical worker.reference_s() on a 2-vCPU Intel Xeon VM at 2.0 GHz with
# Python 3.11.7.  Every time a worker measures is multiplied by REFERENCE_S
# over the median of the reference samples that worker took; set-up-only
# interpreters time the reference right after their import.  On a shared host the
# same pass runs up to 1.7x slower from one minute to the next; the scaled
# times stay within the bounds where the measured ones do not.  The report
# prints both.
REFERENCE_S = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("cold_wall_s", "s"),
    ("warm_wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def _worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_digits"):
        return "digits"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its summary (see `report`)."""
    spec = {"workload": name, "seed": seed, "tiny": tiny}
    _worker({**spec, "setup_only": True})  # untimed: byte-compiles the package on first use
    setups = [_worker({**spec, "setup_only": True}) for _ in range(SETUP_SAMPLES // 2)]
    runs = []
    started = time.perf_counter()
    while True:
        runs.append(_worker(spec))
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed * (len(runs) + 1) / len(runs) > RUN_LIMIT_S:
            break
    probes = _worker({**spec, "probes_only": True})["probes"]
    setups += runs
    setups += [_worker({**spec, "setup_only": True}) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    metrics, measured = {}, {}
    for key, unit in END_TO_END:
        samples = setups if key == "setup_s" else runs
        measured[key] = statistics.median(s[key] for s in samples)
        metrics[key] = measured[key] if unit == "MB" else statistics.median(
            s[key] * REFERENCE_S / s["reference_s"] for s in samples)
    summary = {
        "workload": name,
        "seed": seed,
        "workers": len(runs),
        "setup_samples": len(setups),
        "requests": runs[0]["requests"],
        "tail_percentile": runs[0]["tail_percentile"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "probes": probes,
        "metrics": metrics,
        "measured": measured,
    }
    if trace:
        traced = _worker({**spec, "trace": True})
        summary["failed"] += traced["failed"]
        summary["attempted"] += traced["attempted"]
        summary["failures"] += traced["failures"]
        untraced = statistics.median(r["cold_wall_s"] + r["warm_wall_s"] for r in runs)
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["cold_wall_s"] + traced["warm_wall_s"] - untraced
        summary["layers"] = layers
        summary["layer_walls"] = traced["layer_walls"]
    summary["correct"] = summary["failed"] == 0 and all(p["status"] != "broken" for p in summary["probes"])
    return summary


def report(s: dict) -> None:
    """The human-readable part of one workload's output."""
    n = s["requests"]
    print(f"== {s['workload']}  seed {s['seed']}  {n} requests, cold pass + warm replays  "
          f"{s['workers']} worker(s), closed loop, 1 client")
    beyond = n - round(s["tail_percentile"] * n / 100)
    notes = {
        "setup_s": f"median of {s['setup_samples']} fresh imports of ballcell.cli",
        "cold_wall_s": "cold pass, median over workers",
        "warm_wall_s": "mean of the warm replays, median over workers",
        "latency_p50_ms": f"median of {n} cold-pass requests",
        "latency_tail_ms": f"p{s['tail_percentile']:.1f} of {n} cold-pass requests, {beyond} beyond it",
        "peak_rss_mb": "worker ru_maxrss after its passes, not scaled",
    }
    print(f"  {'':<16} {'scaled':>12} {'':<3} {'measured':>10}")
    for key, unit in END_TO_END:
        print(f"  {key:<16} {s['metrics'][key]:>12.4f} {unit:<3} {s['measured'][key]:>10.4f}  {notes[key]}")
    frac = s["failed"] / s["attempted"]
    print(f"  {'failed_frac':<16} {frac:>12.4f}     {s['failed']} failed of {s['attempted']} requests attempted")
    for f in s["failures"]:
        print(f"  failed ({f['pass']}): ballcell {' '.join(f['argv'])}: {f['reason']}")
    for p in s["probes"]:
        print(f"  known defect [{p['status']}]: ballcell {' '.join(p['argv'])}: exit {p['exit']}: {p['error']}")
    if "layers" in s:
        cold, warm = s["layer_walls"]
        print(f"  per layer (traced worker: cold pass {cold:.3f} s, first warm pass {warm:.3f} s); "
              "share = self time / traced pass wall")
        for key, value in s["layers"].items():
            unit = layer_unit(key)
            share = ""
            if unit == "s" and key != "trace.overhead_s":
                share = f"{100 * value / (warm if key.startswith('warm.') else cold):6.1f} %"
            print(f"    {key:<32} {value:>14.6g} {unit:<6} {share}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0, help="measure at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny request lists, for the harness self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed's outputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ballcell" / "cli.py").is_file():
        print(f"error: no ballcell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.record_digests:
        return _record_digests(names)

    try:
        summaries = [measure(name, args.seed, args.seconds, bool(args.trace), args.tiny) for name in names]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        report(s)
    if not args.workload:
        for request, reason in workloads.UNFINISHABLE:
            print(f"not run: ballcell {request}: {reason}")
    metrics = {}
    for s in summaries:
        prefix = "" if args.workload else f"{s['workload']}."
        if args.trace:
            values = {k: (v, layer_unit(k)) for k, v in s["layers"].items()}
        else:
            values = {k: (s["metrics"][k], unit) for k, unit in END_TO_END}
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


def _record_digests(names: list[str]) -> int:
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for name in names:
        run = _worker({"workload": name, "seed": workloads.DEFAULT_SEED, "record": True})
        if run["failed"]:
            print(f"error: {name} has failing requests; digests not recorded", file=sys.stderr)
            return 1
        recorded[name] = run["digests"]
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
