"""Perf smoke test — the engine benchmark with its acceptance gate.

Runs :func:`repro.analysis.bench.bench_engines` (every engine on the
Figure 2 line sweep, the sequential engine at its two smallest sizes,
and every engine on the Figure 1 star run), writes the machine-readable
perf trajectory to ``BENCH_engines.json`` at the repo root, and asserts
the state-indexed engine's headline speedup over the sequential
reference engine.

Not collected by the default ``pytest`` run (the filename carries no
``test_`` prefix, keeping tier-1 fast); invoke explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py -s

or run the same workload via ``python -m repro.cli bench``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.bench import bench_engines, format_bench

#: The acceptance bar: indexed vs sequential wall-clock on the Figure 2
#: line workload at n=60, the largest size the sequential engine runs
#: (measured 92x, 2 trials, on a 2-vCPU host).
MIN_SPEEDUP = 5.0

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engines.json"


def test_perf_smoke():
    record = bench_engines(out=str(OUT_PATH))
    print("\n" + format_bench(record))

    headline = record["speedup_indexed_vs_sequential"]
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"indexed engine only {headline['speedup']:.1f}x faster than "
        f"sequential at n={headline['n']} (need >= {MIN_SPEEDUP}x)"
    )
    # Every engine must actually have finished its workload.
    assert all(cell["converged"] for cell in record["cells"])


if __name__ == "__main__":
    test_perf_smoke()
