"""One workload repetition in a fresh Python process.

    python3 perfbench/worker.py --spawned T --specs C7k7,B3k3 --trace 0|1

For each spec, in order, it does what ``weylfrob construct`` does:
``build_structure``, ``cli.run_checks`` over every check name with
``oracle_max_rank=3``, then ``serialize.structure_document`` and
``serialize.document_json``.  It prints one JSON object on its last stdout
line: the set-up time (from T, the parent's ``time.monotonic()`` just before
it started this process, to the return of ``import weylfrob.cli``), the
per-spec timings and SHA-256 digests, and with ``--trace 1`` the layer
summary.  An empty ``--specs`` only measures set-up.

Run with ``PYTHONPATH=src`` from the repository root.
"""

import sys
import time

import weylfrob.cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402  (imported after the set-up measurement)
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

from weylfrob import cli, frobenius, serialize  # noqa: E402
from weylfrob.rootdata import RootSystemSpec  # noqa: E402

ORACLE_MAX_RANK = 3


def parse_spec(label: str) -> RootSystemSpec:
    """'C7k1' -> RootSystemSpec('C', 7, 1)."""
    family, rest = label[0], label[1:]
    rank, vertex = rest.split("k")
    return RootSystemSpec(family, int(rank), int(vertex))


def coeff_bits(values) -> int:
    best = 0
    for c in values:
        c = Fraction(c)
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def run_specs(labels, tracer=None):
    """Construct, verify and serialize each spec; never raises for a spec."""
    def call(name, fn, *args):
        return tracer.timed(name, fn, *args) if tracer else fn(*args)

    rows = []
    structs = []
    first = last = None
    for label in labels:
        row = {"spec": label, "build_s": 0.0, "verify_s": 0.0, "serialize_s": 0.0,
               "digest": None, "failed_checks": [], "error": None, "json_bytes": 0}
        t0 = time.perf_counter()
        if first is None:
            first = t0
        try:
            spec = parse_spec(label)
            struct = call("bench.build", frobenius.build_structure, spec)
            t1 = time.perf_counter()
            report = call("bench.verify", cli.run_checks, struct, cli.CHECK_NAMES,
                          ORACLE_MAX_RANK)
            t2 = time.perf_counter()
            doc = serialize.structure_document(struct, report)
            text = serialize.document_json(doc)
            t3 = time.perf_counter()
            row.update(build_s=t1 - t0, verify_s=t2 - t1, serialize_s=t3 - t2)
            data = text.encode("utf-8")
            row["digest"] = hashlib.sha256(data).hexdigest()
            row["json_bytes"] = len(data)
            row["failed_checks"] = [r["check"] for r in report if not r["passed"]]
            structs.append(struct)
        except Exception as exc:  # a failing spec is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            row["error"] = f"{type(exc).__name__}: {exc}"
        last = time.perf_counter()
        rows.append(row)
    construct_s = (last - first) if rows else 0.0
    return rows, structs, construct_s


def output_size(structs):
    """Terms of F and the largest coefficient bit length in F and g_t."""
    terms = 0
    bits = 0
    for struct in structs:
        terms += len(struct.potential.poly.terms)
        bits = max(bits, coeff_bits(struct.potential.poly.terms.values()))
        for row in struct.g_t.mat:
            for entry in row:
                bits = max(bits, coeff_bits(entry.terms.values()))
    return terms, bits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--specs", default="")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    out = {"setup_s": IMPORTED - args.spawned}
    labels = [s for s in args.specs.split(",") if s]
    if labels:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        rows, structs, construct_s = run_specs(labels, tracer)
        out.update(specs=rows, construct_s=construct_s,
                   build_s=sum(r["build_s"] for r in rows),
                   verify_s=sum(r["verify_s"] for r in rows))
        if tracer:
            tracer.uninstall()
            terms, bits = output_size(structs)
            out["trace"] = {"layers": tracer.by_name(), "totals": tracer.totals(),
                            "build_uncovered_s": tracer.uncovered_s("bench.build"),
                            "potential_terms": terms, "coeff_bits_max": bits}
            if args.trace_out:
                with open(args.trace_out, "w") as fh:
                    json.dump({"specs": labels, "spans": tracer.records(),
                               "layers": out["trace"]["layers"]}, fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
