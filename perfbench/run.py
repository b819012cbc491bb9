"""Host-time benchmark of the PageForge simulator, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pf_steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-references

One process, one thread, one closed-loop client: each iteration builds
one simulated machine (``setup_s``), runs it to completion (``run_s``,
``cpu_s``), then checks its outputs before the next starts.  An
end-to-end run takes eight input seeds derived from ``--seed`` in turn
(``harness.run_seeds``) and reports medians over its iterations, each
time rescaled to a reference host speed by a fixed kernel timed around
it (``hostspeed.py``).  Every run first simulates the reference seed
once and compares the digest of its outputs with ``references.json`` (a
known-answer check that also warms the process up).  ``--trace 1`` times ``--seed`` alone, untraced and
then with every layer boundary wrapped (see ``tracing.py``), and reports
the per-layer metrics instead of the end-to-end ones.  Each run writes
its configuration, samples and (traced) spans to one directory under
``perfbench/results/``.  The last line of standard output is the JSON
result.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import ``repro`` from this checkout's ``src/``; False if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().parent == SRC / "repro"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    return parser, args


def main(argv=None):
    parser, args = parse_args(argv)
    if not import_program():
        print(f"error: the program's sources are not under {SRC}",
              file=sys.stderr)
        return 2
    import harness

    if args.record_references:
        return harness.record_references()
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
