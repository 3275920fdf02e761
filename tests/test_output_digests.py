"""Committed digests of every output that the shipped inputs produce.

``output_digests.json`` records the sha256 and size of every artifact and
report of ``scenarios/*.scn``, of the ``qcausal check`` report and of the
``regen-fixtures`` output, with the Python and numpy versions that wrote
them. The test regenerates them all and compares. A change that moves an
output on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_output_digests.py

and names each changed file in CHANGES.md. On another platform a mismatch
is an environment finding to report, not a reason to rewrite the manifest.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from qcausal.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("output_digests.json")


def write_outputs(root: Path):
    commands = [
        ["run", str(scenario), "--out", str(root / "scenarios" / scenario.stem)]
        for scenario in sorted((REPO_ROOT / "scenarios").glob("*.scn"))
    ]
    commands += [["check", "--out", str(root / "check")]]
    commands += [["regen-fixtures", "--out", str(root / "regen-fixtures")]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            main(argv)


def digests(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "size": path.stat().st_size,
        }
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def differences(recorded: dict, current: dict) -> list:
    lines = []
    for name in sorted(recorded.keys() | current.keys()):
        was, now = recorded.get(name), current.get(name)
        if was is None:
            lines.append(f"new file {name}")
        elif now is None:
            lines.append(f"missing file {name}")
        elif was != now:
            lines.append(f"{name}: recorded {was['size']} B {was['sha256'][:12]}, "
                         f"now {now['size']} B {now['sha256'][:12]}")
    return lines


def test_outputs_match_committed_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    write_outputs(tmp_path)
    changed = differences(manifest["files"], digests(tmp_path))
    assert not changed, "\n".join(
        changed + [f"recorded with {manifest['versions']}, running {versions()}"]
    )


def test_differences_name_every_changed_file():
    a = {"sha256": "0" * 64, "size": 1}
    b = {"sha256": "1" * 64, "size": 2}
    lines = differences({"same": a, "moved": a, "gone": a}, {"same": a, "moved": b, "added": b})
    assert lines == [
        "new file added",
        "missing file gone",
        f"moved: recorded 1 B {'0' * 12}, now 2 B {'1' * 12}",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        files = digests(Path(tmp))
    MANIFEST.write_text(
        json.dumps({"versions": versions(), "files": files}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(files)} digests to {MANIFEST}", file=sys.stderr)
