"""The indexed walk runs through census-preserving swaps.

On a table whose rules may exchange two nodes' states over an edge they
keep (:attr:`~repro.core.protocol.CompiledProtocol.swaps`), the indexed
walk asks the certificate through a view of the census and, while its
answer is False, applies such swaps without returning to the run loop
(:meth:`~repro.core.simulator._ExactEngine.run`).  The loop must account
for every one as if it had been returned, so a run reads exactly as one
whose certificate is asked after every change.
"""

from __future__ import annotations

import random

import pytest

from repro.core.indexing import PairClassIndex
from repro.core.protocol import resolve
from repro.core.scenario import Scenario
from repro.core.simulator import IndexedSimulator, make_engine
from repro.core.trace import Trace
from repro.protocols import SimpleGlobalLine, registry

PROTOCOLS = ("simple-global-line", "global-ring", "2rc", "k-regular-connected")
FAULTS = {
    "none": (),
    "churn": ("churn:rate=0.002",),
    "arrive": ("arrive:count=2,at=40",),
}
#: (n, max_steps): small runs that stabilize, and larger ones the
#: budget cuts short.
SIZES = ((10, 200_000), (30, 5_000))
SEEDS = range(4)


def _result_fields(result):
    return (
        result.converged, result.steps, result.effective_steps,
        result.last_change_step, result.last_output_change_step,
        result.stop_reason, result.config,
    )


@pytest.mark.parametrize("check_interval", [1, 3])
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", PROTOCOLS)
def test_runs_equal_a_poll_after_every_change(name, fault, check_interval):
    """Each run equals the same run under a ``stop`` that first reads
    per-node structure (``degree``), which the census view lacks, so it
    is asked after every change as a structural certificate is: the
    same result fields and final configuration, faults and budget cuts
    included.  The census-only runs do skip polls."""
    protocol = registry.instantiate(name)
    scenario = Scenario(faults=FAULTS[fault])
    polls = {"census": 0, "structural": 0}

    def census_only(config):
        polls["census"] += 1
        return protocol.stabilized(config)

    def structural(config):
        polls["structural"] += 1
        config.degree(0)
        return protocol.stabilized(config)

    for n, budget in SIZES:
        for seed in SEEDS:
            runs = [
                make_engine("indexed", seed, scenario).run(
                    protocol, n, budget, stop=stop,
                    check_interval=check_interval,
                )
                for stop in (census_only, structural)
            ]
            assert _result_fields(runs[0]) == _result_fields(runs[1]), (
                n, seed,
            )
    assert polls["census"] < polls["structural"]


def test_line_asks_the_certificate_rarely():
    """Simple-Global-Line at n = 60: the leader's walk is nearly every
    change, and swaps pass without a poll."""
    for seed in range(5):
        protocol = SimpleGlobalLine()
        polls = 0

        def stop(config):
            nonlocal polls
            polls += 1
            return protocol.stabilized(config)

        result = IndexedSimulator(seed=seed).run(protocol, 60, stop=stop)
        assert result.converged
        assert polls <= 0.25 * result.effective_steps, (seed, polls)


def test_every_passed_change_is_published():
    """A traced line run records one interaction event per applied
    change, the last at the run's last change."""
    trace = Trace()
    result = IndexedSimulator(seed=2).run(SimpleGlobalLine(), 40, trace=trace)
    assert result.converged
    assert len(trace.events) == result.effective_steps
    assert trace.events[-1].step == result.last_change_step
    steps = [event.step for event in trace.events]
    assert steps == sorted(set(steps))


def test_swaps_match_a_scan_of_the_declared_triples():
    """For every registered closed table, ``swaps`` says whether some
    declared triple, resolved as an engine resolves it, may hand each
    node the other's state and keep the edge."""
    registry.ensure_populated()
    found = set()
    for name in registry.names():
        protocol = registry.instantiate(name)
        table = protocol.compile()
        if not table.closed:
            assert not table.swaps, name
            continue
        states = sorted(protocol.states, key=repr)
        expected = False
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                for c in (0, 1):
                    resolved = resolve(protocol, a, b, c)
                    if resolved is None:
                        continue
                    dist, swapped = resolved
                    for _, out in dist:
                        new_u, new_v = (
                            (out.b, out.a) if swapped else (out.a, out.b)
                        )
                        if (new_u, new_v, out.edge) == (b, a, c):
                            expected = True
        assert table.swaps == expected, name
        assert table.n_states == len(states), name
        if expected:
            found.add(name)
    assert {
        "simple-global-line", "global-ring", "2rc", "ft-global-line",
    } <= found
    assert not found & {
        "one-way-epidemic", "fast-global-line", "cycle-cover", "global-star",
    }


#: Every registered closed table whose rules hold a swap.
SWAP_TABLES = (
    "simple-global-line", "global-ring", "2rc", "ft-global-line",
    "graph-replication", "k-regular-connected",
)


def _index_state(index):
    """What the seeded law and the configuration's readers see of an
    index and its configuration, orders included (the order of the
    ``nodes`` and ``edges`` dicts themselves is free)."""
    cfg = index.config
    return (
        list(index.counts.items()), list(cfg._counts.items()),
        {s: list(b._items) for s, b in index.nodes.items()},
        {k: list(b._items) for k, b in index.edges.items()},
        list(index.sid), list(cfg._states),
        list(index.weights.items()), index.total,
    )


@pytest.mark.parametrize("name", SWAP_TABLES)
def test_one_pass_swap_equals_two_moves(name):
    """Two identical walks over n = 12 go step for step, their
    generators kept in one state.  At each swap the first walk makes
    (over an edge both nodes keep), the
    second instead calls ``move_node`` for each node and refreshes the
    states, the reference the walk's one pass must match; after every
    step both indexes and configurations agree: counts and
    histogram in key order, node- and edge-bucket item orders, ``sid``
    and the states, ``weights`` in item order and ``total``."""
    walks = []
    for _ in range(2):
        # One table each: a pair memo shared between the two would file
        # an edge for the first walk that the second, knowing its pair
        # has no effective class, leaves unfiled.
        protocol = registry.instantiate(name)
        table = protocol.compile()
        assert table.swaps
        index = PairClassIndex(table, protocol.initial_configuration(12))
        rng = random.Random(5)
        trace = Trace()
        advance = index.walk(rng, trace, protocol.stabilized)[0]
        walks.append((index, rng, trace, advance))
    (one, rng_one, trace, advance_one), (two, rng_two, _, advance_two) = walks
    steps = swaps = 0
    for _ in range(1_500):
        if not one.total:
            break
        drawn = rng_one.getstate()
        after, _, applied, _, _ = advance_one(steps, None, None)
        assert applied == 1
        event = trace.events[-1]
        su = table.intern(event.u_before)
        sv = table.intern(event.v_before)
        if (
            su != sv and event.u_after == event.v_before
            and event.v_after == event.u_before
            and event.edge_after == event.edge_before
        ):
            swaps += 1
            two.move_node(event.u, su, sv)
            two.move_node(event.v, sv, su)
            two.refresh_involving({su, sv, sv, su})
            rng_two.setstate(rng_one.getstate())
        else:
            rng_two.setstate(drawn)
            assert advance_two(steps, None, None)[0] == after
        steps = after
        assert _index_state(one) == _index_state(two), (name, steps)
    assert swaps >= 5, name
