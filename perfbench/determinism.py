"""Determinism check of the compsum benchmark.

    python3 perfbench/determinism.py

For each workload it runs the traced benchmark for one second three times,
one run after another: twice with seed 1 and once with seed 2. It passes when
every run is correct, the two runs with the same seed print identical content
hashes and identical traced counts, and the other seed gives a different
corpus hash. Run it from the root of a compsum checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import workload

RUN = Path(__file__).resolve().parent / "run.py"
SEED, OTHER_SEED = 1, 2
SECONDS = 1


def traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    found = {"result": json.loads(lines[-1])}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("hashes", "counts"):
            found[key] = json.loads(rest)
    return found


def main() -> int:
    ok = True
    for name in sorted(workload.SHAPES):
        a, b, c = (traced_run(name, seed) for seed in (SEED, SEED, OTHER_SEED))
        checks = {
            "all runs correct": all(run["result"]["correct"] for run in (a, b, c)),
            "same seed, same hashes": a["hashes"] == b["hashes"],
            "same seed, same traced counts": a["counts"] == b["counts"],
            "other seed, other corpus": (a["hashes"]["quality"]["corpus"]
                                         != c["hashes"]["quality"]["corpus"]),
        }
        for check, passed in checks.items():
            print(f"{name}: {check}: {'PASS' if passed else 'FAIL'}")
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
