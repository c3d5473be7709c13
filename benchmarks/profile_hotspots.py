#!/usr/bin/env python
"""Profile the indexed fixpoint hot path with cProfile.

Runs ``least_index()`` over a transitive-closure workload under cProfile and
prints the top cumulative-time frames — the quickest way to see where a
storage or join change actually spends its time before reaching for the
full benchmark matrix.  The hot frames should be the generated ``pass_``
join functions and ``RowStore`` absorption.

Usage::

    python benchmarks/profile_hotspots.py
    python benchmarks/profile_hotspots.py --chains 400 --length 25 --top 30
    python benchmarks/profile_hotspots.py --sort tottime     # self time
"""

import argparse
import cProfile
import io
import pathlib
import pstats
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.datalog.engine import DatalogEngine  # noqa: E402
from repro.workloads.generators import transitive_closure_program  # noqa: E402


def profile_fixpoint(chains, length, top, sort):
    """Profile one fixpoint; returns (facts, derived, stats text)."""
    program = transitive_closure_program(chains=chains, length=length)
    engine = DatalogEngine(program)
    profiler = cProfile.Profile()
    profiler.enable()
    index = engine.least_index()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return len(program.facts), len(index), buffer.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=200)
    parser.add_argument("--length", type=int, default=25)
    parser.add_argument("--top", type=int, default=25,
                        help="frames to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)

    facts, derived, rendered = profile_fixpoint(
        args.chains, args.length, args.top, args.sort
    )
    banner = (
        f"transitive_closure(chains={args.chains}, length={args.length})  "
        f"{facts} facts -> {derived} in the fixpoint"
    )
    print("=" * len(banner))
    print(banner)
    print("=" * len(banner))
    print(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
