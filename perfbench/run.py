"""The weylfrob benchmark: construct, verify and serialize fixed spec lists.

    python3 perfbench/run.py --workload top-vertex --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

Run it from the repository root.  Each repetition of a workload runs in a
fresh single-threaded Python process (``worker.py``), one at a time, so every
repetition pays the full construction and none sees another's cache.
Repetitions are started until the next one would end after ``--seconds``
(at least one always runs).  Every JSON document is checked against the
SHA-256 digests in ``reference.json``, which ``make_reference.py`` records
from ``weylfrob construct``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, the
median over repetitions; with ``--trace 1`` it carries the per-layer metrics
of a traced repetition, each paired with an untraced one so that the tracing
overhead is measured.  ``--seed`` sets ``PYTHONHASHSEED`` of the workload
processes; the spec lists themselves are fixed and the arithmetic is exact.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

# Every run must end within 180 s; no repetition may outlive this.
HARD_LIMIT_S = 170.0
SETUP_PROBES = 5


def sweep(max_rank: int) -> List[str]:
    """Every C spec, then every B spec, so each B reuses its cached C."""
    return [f"{family}{l}k{k}" for family in "CB"
            for l in range(1, max_rank + 1) for k in range(1, l + 1)]


WORKLOADS: Dict[str, List[str]] = {
    "top-vertex": ["C7k7"],
    "first-vertex": ["C7k1"],
    "sweep-r5": sweep(5),
    # the self-tests' workload; not listed in BENCHMARK.json
    "tiny": ["C3k1", "B3k3"],
}
MAIN_WORKLOADS = ["top-vertex", "first-vertex", "sweep-r5"]

END_TO_END = [
    ("construct_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

CHECKS = ["pencil", "eta-form", "det", "wdvv", "euler", "intersection",
          "duality", "oracle"]

SPAN_METRICS = [
    "metrics.build_pencil", "metrics.transform_form", "metrics.transform_christoffel",
    "flatcoords.flat_pipeline", "flatcoords.build_z_chart", "flatcoords.solve_p_block",
    "flatcoords.build_w_chart", "flatcoords.gamma_w", "flatcoords.solve_flat_chart",
    "flatcoords.covariant_form",
    "frobenius.third_derivatives", "frobenius.third_derivatives_from_metric",
    "frobenius.integrate_potential", "frobenius.b_to_c",
    "orbitspace.compute_g_direct", "orbitspace.oracle_pairing", "orbitspace.compose",
] + [f"check.{name}" for name in CHECKS] + [
    "serialize.structure_document", "serialize.document_json",
    "exactalg.mat_adjugate",
]

COUNT_METRICS = [
    ("serialize.json_bytes", "bytes"),
    ("exactalg.mat_det_calls", "count"),
    ("exactalg.mat_inverse_unit_calls", "count"),
    ("exactalg.poly_mul_calls", "count"),
    ("exactalg.poly_mul_terms_out", "count"),
    ("exactalg.substitute_calls", "count"),
    ("exactalg.solve_linear_calls", "count"),
    ("exactalg.solve_linear_unknowns", "count"),
    ("check.wdvv.poly_mul_calls", "count"),
    ("check.pencil.poly_mul_calls", "count"),
    ("frobenius.potential_terms", "count"),
    ("frobenius.coeff_bits_max", "bits"),
]

PER_LAYER = ([(name + "_s", "s") for name in SPAN_METRICS] + COUNT_METRICS
             + [("trace.overhead_s", "s"), ("trace.build_uncovered_s", "s")])

# Share of build_s the top-level layer spans may leave uncovered.  The
# measured tracing overhead is not used as the tolerance: it is a difference
# of two wall times and as noisy as the host, while the uncovered share comes
# from one process and stays below 0.5 % when every wrapper fires.
COVERAGE_SHARE = 0.02


class Runner:
    """Starts worker processes for one benchmark invocation, within a deadline."""

    def __init__(self, seed: int, started: float):
        self.started = started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.env = env

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, specs: List[str], trace: bool = False,
               trace_out: Optional[Path] = None) -> Optional[dict]:
        """One repetition; None when the process failed or ran out of time."""
        cmd = [sys.executable, str(WORKER), "--specs", ",".join(specs),
               "--trace", str(int(trace))]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"worker for {','.join(specs)} timed out", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not out.strip():
            sys.stderr.write(err)
            print(f"worker for {','.join(specs)} exited {proc.returncode}",
                  file=sys.stderr)
            return None
        if err:
            sys.stderr.write(err)
        return json.loads(out.strip().splitlines()[-1])


def spec_failures(rep: Optional[dict], specs: List[str],
                  reference: Dict[str, str]) -> List[str]:
    """Why each failed spec of one repetition failed; a lost worker fails all."""
    if rep is None:
        return [f"{label}: worker failed" for label in specs]
    problems = []
    for row in rep["specs"]:
        label = row["spec"]
        if row["error"]:
            problems.append(f"{label}: {row['error']}")
        elif row["failed_checks"]:
            problems.append(f"{label}: checks failed: {', '.join(row['failed_checks'])}")
        elif row["digest"] != reference.get(label):
            problems.append(f"{label}: document digest differs from the reference")
    return problems


def repeat(seconds: float, step) -> None:
    """Call step() until the next call, timed like the last, would end late."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        step()
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            return


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: Dict[str, str], started: Optional[float] = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    specs = WORKLOADS[workload]
    runner = Runner(seed, time.monotonic() if started is None else started)
    runner.worker([])  # warm-up: file cache, and bytecode cache where allowed
    setups = [] if trace else [
        p["setup_s"] for p in (runner.worker([]) for _ in range(SETUP_PROBES)) if p]

    plain: List[Optional[dict]] = []
    traced: List[Optional[dict]] = []
    problems: List[str] = []
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"trace-{workload}-seed{seed}.json"

    def step():
        plain.append(runner.worker(specs))
        if trace:
            traced.append(runner.worker(specs, trace=True, trace_out=trace_out))

    repeat(min(seconds, runner.remaining()), step)
    reps = plain + traced
    for rep in reps:
        problems += spec_failures(rep, specs, reference)
        if rep is not None:
            setups.append(rep["setup_s"])
    good = [r for r in plain if r is not None]
    good_traced = [r for r in traced if r is not None]
    attempted = len(specs) * len(reps)
    failed = len(problems)

    gate_problems: List[str] = []
    if trace:
        metrics = layer_metrics(good, good_traced, gate_problems)
    else:
        metrics = {}
        if good:
            for name, unit in END_TO_END:
                values = setups if name == "setup_s" else [r[name] for r in good]
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    complete = len(metrics) == len(PER_LAYER if trace else END_TO_END)
    return {
        "correct": failed == 0 and complete and not gate_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems + gate_problems,
        "repetitions": len(plain),
        "construct_samples": [r["construct_s"] for r in good],
    }


def layer_metrics(plain: List[dict], traced: List[dict], problems: List[str]) -> dict:
    """Per-layer metrics from the traced repetitions, plus overhead and coverage."""
    if not plain or not traced:
        return {}
    out: Dict[str, dict] = {}
    for name in SPAN_METRICS:
        values = [r["trace"]["layers"].get(name, {}).get("incl_s", 0.0) for r in traced]
        out[name + "_s"] = {"value": statistics.median(values), "unit": "s"}
    first = traced[0]
    for rep in traced[1:]:
        if exact_counts(rep) != exact_counts(first):
            problems.append("exact counters differ between traced repetitions")
    counts = exact_counts(first)
    for name, unit in COUNT_METRICS:
        out[name] = {"value": counts[name], "unit": unit}
    overhead = (statistics.median(r["construct_s"] for r in traced)
                - statistics.median(r["construct_s"] for r in plain))
    uncovered = statistics.median(r["trace"]["build_uncovered_s"] for r in traced)
    build = statistics.median(r["build_s"] for r in traced)
    if uncovered > COVERAGE_SHARE * build:
        problems.append(f"layer spans leave {uncovered:.4f} s of {build:.3f} s of build "
                        f"uncovered (tracing overhead {overhead:.3f} s)")
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.build_uncovered_s"] = {"value": uncovered, "unit": "s"}
    return out


def exact_counts(rep: dict) -> Dict[str, int]:
    """Counters that must repeat exactly for the same code and specs."""
    t = rep["trace"]
    counts = {name: t["totals"].get(name, 0) for name, _ in COUNT_METRICS
              if name.startswith("exactalg.")}
    for check in ("wdvv", "pencil"):
        counts[f"check.{check}.poly_mul_calls"] = \
            t["layers"].get(f"check.{check}", {}).get("poly_mul_calls", 0)
    counts["serialize.json_bytes"] = sum(row["json_bytes"] for row in rep["specs"])
    counts["frobenius.potential_terms"] = t["potential_terms"]
    counts["frobenius.coeff_bits_max"] = t["coeff_bits_max"]
    return counts


def report(workload: str, result: dict) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    print(f"== {workload}: {result['repetitions']} repetition(s), "
          f"failed_ops {result['failed']}/{result['attempted']} specs")
    samples = ", ".join(f"{x:.3f}" for x in result["construct_samples"])
    print(f"  untraced construct_s per repetition: {samples}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def result_line(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "weylfrob" / "__init__.py").is_file():
        print("run from the repository root: src/weylfrob is missing", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    if args.workload == "all":
        results = {}
        for workload in MAIN_WORKLOADS:
            result = measure(workload, args.seed, args.seconds, bool(args.trace),
                             reference)
            report(workload, result)
            results[workload] = result_line(result)
        print(json.dumps(results))
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     reference, started)
    report(args.workload, result)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
