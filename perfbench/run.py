"""sgmopt benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the repository root; it imports sgmopt from ``src/``.  The run
repeats cycles of the workload (closed loop: each solve or experiment batch
starts when the previous one ends) until ``--seconds`` have passed, checks
every result, and prints the metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A copy of everything printed, with provenance, goes to
``.perfbench_out/``; a traced run also writes its spans there.

``--trace 1`` first runs untraced for half the time, then repeats the same
cycles with every layer boundary traced; the ratio of the two wall times is
``trace.overhead_ratio``.  See perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Put this checkout's src/ first on the path and import sgmopt from
    it, or exit with status 2 when the checkout has no program."""
    if not (SRC / "sgmopt" / "__init__.py").is_file():
        print(f"error: {SRC / 'sgmopt'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import sgmopt
    if not Path(sgmopt.__file__).resolve().is_relative_to(SRC):
        print(f"error: sgmopt imported from {sgmopt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    import_program()
    from perfbench import harness
    sys.exit(harness.main())
