"""Time set-up in a fresh interpreter: import, registry, store + server.

Usage: python3 perfbench/setup_probe.py WORK_DIR MODULE [MODULE ...] [--service]

Run from the repository root.  Prints one JSON line of seconds.  With
``--service`` it also opens a result store under WORK_DIR and starts the
HTTP service on an ephemeral port.  The process then exits without the
service's shutdown handshake (its threads are daemons and die with it),
since only start-up is being timed.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> None:
    service = "--service" in argv
    args = [a for a in argv if a != "--service"]
    work_dir, modules = args[0], args[1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    from repro.protocols import registry

    registry.ensure_populated()
    populated = time.perf_counter()
    out = {
        "interpreter_s": start - T0,
        "import_s": imported - start,
        "registry_s": populated - imported,
        "service_start_s": 0.0,
    }
    if service:
        from repro.service.api import ExperimentService
        from repro.service.store import ResultStore

        store = ResultStore(os.path.join(work_dir, f"probe-store-{os.getpid()}"))
        ExperimentService(store=store, workers=1, port=0).start()
        out["service_start_s"] = time.perf_counter() - populated
    out["total_s"] = out["import_s"] + out["registry_s"] + out["service_start_s"]
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
