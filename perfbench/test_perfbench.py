"""Self-tests of the benchmark on the tiny workload (C3k1 + B3k3).

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import worker  # noqa: E402
from make_reference import cli_document  # noqa: E402
from tracer import Tracer  # noqa: E402
from weylfrob import cli, flatcoords, frobenius, metrics  # noqa: E402


def bench(*args):
    """Run the benchmark command; returns (stdout lines, result object)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.MAIN_WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert run.CHECKS == cli.CHECK_NAMES


def test_untraced_run_prints_every_end_to_end_metric():
    lines, result = bench("--workload", "tiny", "--seed", "5", "--seconds", "1",
                          "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    assert f"failed_ops 0/{result['attempted']} specs" in text
    for name, unit in run.END_TO_END:
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1]), name


def test_traced_run_reports_every_span_and_repeats_its_counts():
    counts = []
    for seed in ("7", "8"):
        _, result = bench("--workload", "tiny", "--seed", seed, "--seconds", "0",
                          "--trace", "1")
        assert result["correct"] is True
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.PER_LAYER
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] != "s"})
        layers = json.loads((run.OUT_DIR / f"trace-tiny-seed{seed}.json").read_text())
        for name in run.SPAN_METRICS:
            assert layers["layers"].get(name, {}).get("calls", 0) >= 1, name
            assert result["metrics"][name + "_s"]["value"] > 0, name
    assert counts[0] == counts[1]


def test_corrupted_reference_digest_fails_exactly_that_spec():
    reference = json.loads(run.REFERENCE.read_text())
    reference["B3k3"] = "0" * 64
    result = run.measure("tiny", seed=1, seconds=0, trace=False, reference=reference)
    assert (result["failed"], result["attempted"]) == (1, 2)
    assert result["correct"] is False
    assert result["problems"] == ["B3k3: document digest differs from the reference"]


def test_exception_in_one_spec_is_counted_not_fatal(monkeypatch):
    real = frobenius.build_structure

    def flaky(spec):
        if spec.family == "B":
            raise KeyError("injected")
        return real(spec)

    monkeypatch.setattr(frobenius, "build_structure", flaky)
    rows, _, _ = worker.run_specs(["B3k3", "C3k1"])
    rep = {"specs": rows}
    reference = json.loads(run.REFERENCE.read_text())
    assert run.spec_failures(rep, ["B3k3", "C3k1"], reference) == [
        "B3k3: KeyError: 'injected'"]


def test_in_process_document_is_byte_identical_to_the_cli():
    reference = json.loads(run.REFERENCE.read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    for label in run.WORKLOADS["tiny"]:
        rows, _, _ = worker.run_specs([label])
        data = cli_document(label, run.OUT_DIR / f"cli-{label}.json")
        assert rows[0]["digest"] == hashlib.sha256(data).hexdigest() == reference[label]


def test_tracer_uninstall_restores_every_binding():
    before = (metrics.transform_form, flatcoords.transform_form,
              frobenius.transform_form, frobenius.Poly.__mul__)
    tracer = Tracer()
    tracer.install()
    assert flatcoords.transform_form is not before[1]
    assert frobenius.transform_form is flatcoords.transform_form
    tracer.uninstall()
    after = (metrics.transform_form, flatcoords.transform_form,
             frobenius.transform_form, frobenius.Poly.__mul__)
    assert after == before
