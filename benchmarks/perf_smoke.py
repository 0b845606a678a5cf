"""Perf smoke test — the engine benchmark with its acceptance gate.

Runs :func:`repro.analysis.bench.bench_engines` (all three engines on the
Figure 2 line sweep and the Figure 1 star run), writes the
machine-readable perf trajectory to ``BENCH_engines.json`` at the repo
root, and asserts the state-indexed engine's headline speedup.

Not collected by the default ``pytest`` run (the filename carries no
``test_`` prefix, keeping tier-1 fast); invoke explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py -s

or run the same workload via ``python -m repro.cli bench``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.bench import bench_engines, format_bench

#: The acceptance bar: indexed vs agitated wall-clock on the Figure 2
#: line workload at the largest swept size (measured ~34x at n=480,
#: 2 trials, on a 2-vCPU host).
MIN_SPEEDUP = 5.0

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engines.json"


def test_perf_smoke():
    record = bench_engines(out=str(OUT_PATH))
    print("\n" + format_bench(record))

    headline = record["speedup_indexed_vs_agitated"]
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"indexed engine only {headline['speedup']:.1f}x faster than "
        f"agitated at n={headline['n']} (need >= {MIN_SPEEDUP}x)"
    )
    # Every engine must actually have finished its workload.
    assert all(cell["converged"] for cell in record["cells"])


if __name__ == "__main__":
    test_perf_smoke()
