"""Which library lines does the traffic never reach?

Traffic is every CLI experiment at its defaults, written to a temporary
directory, plus rounds 0 and 1 of each benchmark workload at seed 1, items
and output gates both (``perfbench/workloads.py`` is imported, never
written).  Round 1 is there for point-late's gate: round 0's positions,
1.087 and 2.078, lie past the well's cutoff, which the separatrix orbit
never reaches, so the gate's ``crossing_events`` refines no crossing;
round 1's, 0.096 and 0.238, are crossed.  With round 0 alone the
refinement in ``flow.crossing_events`` would be listed as unreached.
``sys.settrace`` records the lines run inside ``src/hetclaw``, the import
of the package included.  For each module the script prints every
executable line no traffic reached, ``R`` marking the lines of a raise
statement; a line no traffic reaches is a candidate for deletion unless
it refuses or a test or a reference route needs it.

Run from the repository root, in about 12 s on a 2-core x86 host:

    python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hetclaw"


def tracer(reached: dict[str, set[int]]):
    """A global trace function that adds each line run in a file keyed
    in ``reached`` to that file's set, and follows no other frame."""
    def trace(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local
    return trace


def executable(source: str, path: str) -> set[int]:
    """Lines that carry an instruction of the module or of any code
    object nested in it, less each function's and class's own first line
    (its def runs in the enclosing code)."""
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                todo.append(const)
                lines.discard(const.co_firstlineno)
    return lines


def raising(source: str) -> set[int]:
    """Lines spanned by a raise statement."""
    return {n for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise)
            for n in range(node.lineno, node.end_lineno + 1)}


def _direct(_name, _layer, fn, *args, **kwargs):
    """A workload's call hook, untimed: just the call."""
    return fn(*args, **kwargs)


def traffic() -> None:
    """Every CLI experiment at its defaults and two seeded rounds of each
    workload, with the library imported under the tracer."""
    from hetclaw.cli import EXPERIMENTS, main
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hetclaw as hc
    from workloads import WORKLOADS, round_rng

    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(EXPERIMENTS):
            if main(["--experiment", name, "--out", out]) != 0:
                raise SystemExit(f"experiment {name} failed")
    model = hc.quartic_well()
    for workload in WORKLOADS.values():
        for r in (0, 1):
            items = workload.inputs(round_rng(1, r))
            outputs = [workload.item(model, item, _direct) for item in items]
            failed = [f for f in workload.check(model, items, outputs) if f]
            if failed:
                raise SystemExit(f"workload {workload.name} failed in "
                                 f"round {r}: {failed}")


def main() -> int:
    sys.path.insert(0, str(LIBRARY.parent))
    modules = sorted(LIBRARY.glob("*.py"))
    reached = {str(path): set() for path in modules}
    sys.settrace(tracer(reached))
    try:
        traffic()
    finally:
        sys.settrace(None)
    total = 0
    for path in modules:
        source = path.read_text()
        text = source.splitlines()
        missed = sorted(executable(source, str(path)) - reached[str(path)])
        if not missed:
            continue
        refusals = raising(source)
        total += len(missed)
        print(f"{path.name}: {len(missed)} unreached, "
              f"{len(refusals.intersection(missed))} in a raise")
        for n in missed:
            mark = "R" if n in refusals else " "
            print(f"  {n:4d} {mark} {text[n - 1].strip()}")
    print(f"{total} executable lines unreached in {LIBRARY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
