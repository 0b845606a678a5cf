"""repro — Network Constructors.

A faithful, production-quality reproduction of

    Othon Michail & Paul G. Spirakis,
    "Simple and Efficient Local Codes for Distributed Stable Network
    Construction", PODC 2014 / Distributed Computing.

The package implements the full model of finite-state agents that interact
in adversarially scheduled pairs and activate/deactivate the edges between
them, every protocol of the paper (spanning lines, rings, stars, cycle
covers, k-regular networks, clique partitions, graph replication), the
seven fundamental probabilistic processes of Section 3.3, and the generic
(Turing-machine-simulating) constructors of Section 6.

Quickstart
----------
>>> from repro import protocols, run_to_convergence
>>> from repro.core.graphs import is_spanning_star
>>> result = run_to_convergence(protocols.GlobalStar(), n=20, seed=0)
>>> is_spanning_star(result.config.output_graph())
True
"""

from repro.core import (
    ENGINES,
    Configuration,
    IndexedSimulator,
    Protocol,
    RunResult,
    SequentialSimulator,
    TableProtocol,
    Trace,
    UniformRandomScheduler,
    make_engine,
    run_to_convergence,
)

__version__ = "1.1.0"

__all__ = [
    "Configuration",
    "ENGINES",
    "IndexedSimulator",
    "Protocol",
    "RunResult",
    "SequentialSimulator",
    "TableProtocol",
    "Trace",
    "UniformRandomScheduler",
    "make_engine",
    "run_to_convergence",
    "__version__",
]
