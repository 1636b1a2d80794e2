"""Golden manifest: every experiment's outputs at default config, by hash.

``cli_golden.json`` holds the sha256 of all files the eight experiments
write at their default configuration.  A refactor that is meant to leave
the numbers alone must leave these bytes alone too; the test regenerates
them and names every file that differs.

The digests are tied to the numpy build that produced them (recorded in
the manifest, currently 2.4.6): another numpy may round a few ulps
differently and move bytes without any change here.  A change that moves
bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from hetclaw.cli import EXPERIMENTS, main

MANIFEST = os.path.join(os.path.dirname(__file__), "cli_golden.json")


def digests(out_root) -> dict:
    """Run every experiment at defaults; map experiment/file to sha256."""
    found = {}
    for name in sorted(EXPERIMENTS):
        out = os.path.join(out_root, name)
        code = main(["--experiment", name, "--out", out])
        assert code == 0, f"experiment {name} exited with {code}"
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                found[f"{name}/{fname}"] = hashlib.sha256(
                    fh.read()).hexdigest()
    return found


def test_default_outputs_match_the_golden_manifest(tmp_path, capsys):
    with open(MANIFEST) as fh:
        golden = json.load(fh)
    found = digests(str(tmp_path))
    capsys.readouterr()
    assert sorted(found) == sorted(golden["files"]), (
        f"file set changed: {sorted(set(found) ^ set(golden['files']))}")
    differ = [path for path, digest in sorted(golden["files"].items())
              if found[path] != digest]
    assert not differ, (
        f"{len(differ)} files differ from the golden manifest: "
        f"{', '.join(differ)} (manifest built with numpy {golden['numpy']}, "
        f"running {np.__version__})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = digests(tmp)
    with open(MANIFEST, "w") as fh:
        json.dump({"numpy": np.__version__, "files": files}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(files)} digests to {MANIFEST}", file=sys.stderr)
