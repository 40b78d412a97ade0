"""Record the reference digests of every benchmark spec.

    PYTHONPATH=src python3 perfbench/make_reference.py

For each spec of every workload it writes the document with
``weylfrob.cli.main(["construct", ...])``, stores the SHA-256 of the file in
``reference.json``, and asserts that the benchmark's in-process document
(``worker.run_specs``) is byte-identical to the CLI's.  Run it only at a
commit whose output is known to be right: the benchmark counts every later
difference as a failed spec.
"""

import hashlib
import json
import sys
from pathlib import Path

from run import OUT_DIR, REFERENCE, WORKLOADS
from worker import parse_spec, run_specs
from weylfrob import cli


def cli_document(label: str, path: Path) -> bytes:
    spec = parse_spec(label)
    code = cli.main(["construct", "--family", spec.family, "--rank", str(spec.rank),
                     "--vertex", str(spec.vertex), "--out", str(path)])
    if code != 0:
        raise SystemExit(f"weylfrob construct failed for {label} (exit {code})")
    return path.read_bytes()


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    labels = list(dict.fromkeys(label for specs in WORKLOADS.values() for label in specs))
    digests = {}
    for label in labels:
        rows, _, _ = run_specs([label])
        data = cli_document(label, OUT_DIR / f"reference-{label}.json")
        digest = hashlib.sha256(data).hexdigest()
        if rows[0]["digest"] != digest:
            raise SystemExit(f"{label}: in-process document differs from the CLI's")
        digests[label] = digest
        print(label, digest, flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
