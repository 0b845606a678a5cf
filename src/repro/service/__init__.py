"""Experiment service: content-addressed result store + async job queue.

Layered above :mod:`repro.analysis` (which never imports this package
except lazily through its optional ``cache=`` parameters):

- :mod:`repro.service.keys` — stable content addresses for trials:
  sha256 over (canonical spec JSON, protocol-behavior digest, schema
  version), so editing one protocol invalidates only its own cells.
- :mod:`repro.service.store` — sharded, atomic, file-based
  :class:`ResultStore` with stats and garbage collection.
- :mod:`repro.service.jobs` — asyncio :class:`JobService`: expands
  specs, dedupes against the store, shards misses across the process
  pool in batches, streams progress.
- :mod:`repro.service.sse` — the server-sent-events wire format of
  the job event stream, written by the service and parsed by the
  client.
- :mod:`repro.service.dashboard` — the ``repro-net watch`` page and
  its census snapshot, served per job.
- :mod:`repro.service.api` — plain-JSON HTTP front end
  (:class:`ExperimentService`, ``repro-net serve``) plus the SSE
  ``GET /jobs/<id>/events`` route and the dashboard's
  ``/jobs/<id>/watch`` and ``/jobs/<id>/census`` routes.
- :mod:`repro.service.client` — stdlib keep-alive :class:`ServiceClient`.
"""

from repro.service.api import ExperimentService, serve
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobService
from repro.service.sse import (
    HEARTBEAT_SECONDS,
    parse_sse,
    send_sse_headers,
    write_sse,
)
from repro.service.keys import (
    SCHEMA_VERSION,
    behavior_digest,
    code_digest,
    robustness_trial_key,
    trial_key,
)
from repro.service.store import GcStats, ResultStore, StoreError, StoreStats

__all__ = [
    "HEARTBEAT_SECONDS",
    "SCHEMA_VERSION",
    "ExperimentService",
    "GcStats",
    "Job",
    "JobService",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "StoreError",
    "StoreStats",
    "behavior_digest",
    "code_digest",
    "parse_sse",
    "robustness_trial_key",
    "send_sse_headers",
    "serve",
    "trial_key",
    "write_sse",
]
