#!/usr/bin/env python3
"""The spanning-line race: Protocols 1, 2 and 10 head to head.

The spanning line is the key to universality (Section 6), and the paper
gives three constructors with different size/time trade-offs:

* Simple-Global-Line — 5 states, Ω(n⁴)/O(n⁵): merge lines, random-walk
  the leader to an endpoint.
* Fast-Global-Line — 9 states, O(n³): never merge; steal one node at a
  time from sleeping lines.
* Faster-Global-Line — 6 states, conjectured improvement (Section 7):
  defeated lines actively dissolve.

This example regenerates the paper's experimental comparison, prints the
measured sweep, fits the growth exponents, and reports the crossover
where Fast overtakes Simple (Fast pays bigger constants per operation).

Run:  python examples/line_race.py          (a few seconds)
"""

from repro.analysis import (
    ExperimentSpec,
    Runner,
    crossover_size,
    fit_power_law,
)

SIZES = [10, 16, 24, 34, 44]
TRIALS = 10
#: Display name -> registry spec of each racer.
RACERS = {
    "Simple-Global-Line": "simple-global-line",
    "Fast-Global-Line": "fast-global-line",
    "Faster-Global-Line": "faster-global-line",
}


def main() -> None:
    sweeps = {
        name: Runner().run(ExperimentSpec(
            protocol=spec, sizes=SIZES, trials=TRIALS, base_seed=1,
        )).summaries()
        for name, spec in RACERS.items()
    }

    print(f"{'n':>5}", end="")
    for name in sweeps:
        print(f"{name:>22}", end="")
    print()
    for n in SIZES:
        print(f"{n:>5}", end="")
        for name in sweeps:
            print(f"{sweeps[name][n].mean:>22,.0f}", end="")
        print()

    print("\nfitted growth orders (paper: Ω(n⁴)/O(n⁵), O(n³), open):")
    for name, sweep in sweeps.items():
        fit = fit_power_law(SIZES, [sweep[n].mean for n in SIZES])
        print(f"  {name:>22}: {fit.describe()}")

    simple = [sweeps["Simple-Global-Line"][n].mean for n in SIZES]
    fast = [sweeps["Fast-Global-Line"][n].mean for n in SIZES]
    cross = crossover_size(SIZES, fast, simple)
    print(f"\nFast-Global-Line overtakes Simple-Global-Line from n ≈ {cross}")
    faster = [sweeps["Faster-Global-Line"][n].mean for n in SIZES]
    speedup = fast[-1] / faster[-1]
    print(f"Faster-Global-Line speedup over Fast at n={SIZES[-1]}: "
          f"{speedup:.1f}x (the paper leaves its asymptotics open)")


if __name__ == "__main__":
    main()
