"""CI smoke: a freshly simulated fig11 matches the committed golden.

Renders a fast fig11 (two workloads, all four policies, the full
seven-point latency grid) into a fresh result store, so every point
genuinely simulates, and diffs the rendered table byte-for-byte
against the committed golden (``tests/golden/fig11_fast.txt``).  A
diff means a kernel or model change moved a headline figure: if the
move is intended, re-run with ``--update`` and commit the new table.

Usage:
    PYTHONPATH=src python scripts/golden_smoke.py            # gate
    PYTHONPATH=src python scripts/golden_smoke.py --update   # re-golden
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys
import tempfile

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
          / "tests" / "golden" / "fig11_fast.txt")

#: Small mixed-category subset: one compute-ish and one memory-ish
#: workload keep the smoke under a minute.
WORKLOADS = ["btree", "kmeans"]


def render(store_dir: str):
    """Render the fast fig11 into a fresh store at ``store_dir``."""
    from repro.experiments.latency_tolerance import fig11
    from repro.experiments.runner import Runner

    runner = Runner(cache_dir=store_dir)
    result = fig11(runner, workloads=WORKLOADS, jobs=1)
    return result.render() + "\n", runner.stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="regenerate the committed golden instead "
                             "of gating")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        text, stats = render(tmp)
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text)
        print(f"golden updated: {GOLDEN}")
        return 0

    if not GOLDEN.exists():
        print(f"error: no golden at {GOLDEN}; run with --update "
              "and commit the result", file=sys.stderr)
        return 2
    golden = GOLDEN.read_text()
    if text != golden:
        sys.stderr.writelines(difflib.unified_diff(
            golden.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=str(GOLDEN), tofile="fig11 (fresh)",
        ))
        print("error: fig11 differs from the committed golden; if the "
              "change is intended, regenerate with --update and commit",
              file=sys.stderr)
        return 1
    if stats.simulated == 0:
        print("error: no point simulated -- the store was not fresh",
              file=sys.stderr)
        return 1

    print(f"fig11 golden smoke OK: table byte-identical to golden "
          f"({stats.simulated} point(s) simulated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
