"""No CLI byte changed: the ops of the benchmark's first cycles give the
exit codes, stdout, stderr and CSV bytes recorded in ``output_digests.json``.

The ops are the 228 of ``bench/workloads.cycle`` for every workload, seeds
1-2, cycles 0-5, run in-process through ``cli.main``; manifests are left
out, as they hold versions and flags.  The digests hold only on the Python
and numpy versions they were made with; elsewhere the test skips.  A change
that means to move outputs regenerates the file, which prints the name of
each op that moved and their count per template:

    python tests/test_output_digests.py --write
"""

import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import sys
import tempfile

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "output_digests.json")
SEEDS, CYCLES = (1, 2), range(6)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def ops():
    """(name, argv) of every replayed op; ``bench/workloads.py`` is only read."""
    workloads = runpy.run_path(os.path.join(ROOT, "bench", "workloads.py"))
    for workload in workloads["WORKLOADS"]:
        for seed in SEEDS:
            for c in CYCLES:
                for i, op in enumerate(workloads["cycle"](workload, seed, c)):
                    yield (f"{workload} seed {seed} cycle {c} op {i} "
                           f"{op['template']}", op["argv"])


def replay() -> dict:
    """The sha256 of each op's exit code, stdout, stderr and CSV bytes."""
    from wienerdr import cli

    digests = {}
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "op.csv")
        for name, argv in ops():
            if os.path.exists(out):
                os.unlink(out)
            sink_out, sink_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(sink_out), \
                    contextlib.redirect_stderr(sink_err):
                code = cli.main(argv + ["--out", out])
            csv = b""
            if os.path.exists(out):
                with open(out, "rb") as f:
                    csv = f.read()
            h = hashlib.sha256()
            for part in (str(code).encode(), sink_out.getvalue().encode(),
                         sink_err.getvalue().encode(), csv):
                h.update(len(part).to_bytes(8, "little") + part)
            digests[name] = h.hexdigest()
    return digests


def test_no_output_changed():
    with open(DIGESTS) as f:
        recorded = json.load(f)
    if recorded["versions"] != versions():
        pytest.skip(f"digests made on {recorded['versions']}, "
                    f"this is {versions()}")
    now = replay()
    assert sorted(now) == sorted(recorded["ops"]), "the op list changed"
    moved = [name for name in now if now[name] != recorded["ops"][name]]
    assert not moved, f"{len(moved)} ops moved: " + "; ".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_digests.py --write")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(DIGESTS) as f:
        before = json.load(f)["ops"]
    now = replay()
    moved = [name for name in now if now[name] != before.get(name)]
    print("\n".join(moved))
    per_template = collections.Counter(name.split()[-1] for name in moved)
    print(f"{len(moved)} ops moved:", ", ".join(
        f"{template} {n}" for template, n in sorted(per_template.items())))
    with open(DIGESTS, "w") as f:
        json.dump({"versions": versions(), "ops": now}, f, indent=1)
        f.write("\n")
