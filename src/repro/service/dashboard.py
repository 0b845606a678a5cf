"""The ``repro-net watch`` dashboard: one self-contained page and the
census snapshot, both served per job by :mod:`repro.service.api`
(``GET /jobs/<id>/watch`` and ``GET /jobs/<id>/census``).

No template engine, no JS framework, no CDN: the browser side is a
single ``EventSource`` on the relative URL ``events`` — from
``/jobs/<id>/watch`` that is the job's ``/jobs/<id>/events`` stream —
folding the observability frames (:class:`~repro.core.trace.
FrameAdapter` dicts plus the job service's ``status``/``end`` control
frames) into a census bar chart, a progress readout, an active-edge
counter and a fault timeline.  Keeping it dependency-free means the
page works wherever the stdlib HTTP server does — CI included.
"""

from __future__ import annotations

import html

from repro.core.trace import FrameLog

#: Most recent fault frames the census snapshot retains.
CENSUS_FAULT_TAIL = 50

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  :root { color-scheme: dark; }
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         background: #14161a; color: #d8dee6; margin: 0; padding: 1.2rem; }
  h1 { font-size: 1.05rem; margin: 0 0 .2rem 0; }
  .sub { color: #7f8a99; font-size: .8rem; margin-bottom: 1rem; }
  .grid { display: grid; grid-template-columns: 2fr 1fr; gap: 1rem; }
  .card { background: #1c1f26; border: 1px solid #2a2f3a;
          border-radius: 6px; padding: .8rem 1rem; }
  .card h2 { font-size: .78rem; text-transform: uppercase;
             letter-spacing: .08em; color: #8a94a6; margin: 0 0 .6rem 0; }
  .row { display: flex; align-items: center; margin: .25rem 0; }
  .row .label { width: 9rem; overflow: hidden; text-overflow: ellipsis;
                white-space: nowrap; flex: none; font-size: .82rem; }
  .row .bar { height: .9rem; background: #4f8cc9; border-radius: 2px;
              min-width: 2px; transition: width .15s; }
  .row .count { margin-left: .5rem; font-size: .8rem; color: #9fb3c8; }
  .stat { display: flex; justify-content: space-between;
          font-size: .85rem; margin: .3rem 0; }
  .stat b { color: #e8eef6; font-weight: 600; }
  .ok { color: #7bc77e; } .bad { color: #e06c75; } .dim { color: #7f8a99; }
  #faults div { font-size: .78rem; margin: .2rem 0; color: #d3a15f; }
  #progressbar { height: .5rem; background: #2a2f3a; border-radius: 3px;
                 overflow: hidden; margin-top: .4rem; }
  #progressfill { height: 100%; width: 0%; background: #7bc77e;
                  transition: width .2s; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div class="sub" id="runline">waiting for frames&hellip;</div>
<div class="grid">
  <div class="card">
    <h2>State census</h2>
    <div id="census"><span class="dim">no census frame yet</span></div>
  </div>
  <div>
    <div class="card">
      <h2>Run</h2>
      <div class="stat"><span>step</span><b id="step">&ndash;</b></div>
      <div class="stat"><span>effective</span><b id="effective">&ndash;</b></div>
      <div class="stat"><span>active edges</span><b id="edges">&ndash;</b></div>
      <div class="stat"><span>status</span><b id="state">streaming</b></div>
      <div id="progressbar"><div id="progressfill"></div></div>
      <div class="stat"><span id="progresslabel" class="dim"></span></div>
    </div>
    <div class="card" style="margin-top:1rem">
      <h2>Fault timeline</h2>
      <div id="faults"><span class="dim">none</span></div>
    </div>
  </div>
</div>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
let faultCount = 0;

function renderCensus(counts) {
  const el = $("census");
  const entries = Object.entries(counts).sort((a, b) => b[1] - a[1]);
  const total = entries.reduce((s, e) => s + e[1], 0) || 1;
  el.textContent = "";
  for (const [state, count] of entries) {
    const row = document.createElement("div"); row.className = "row";
    const label = document.createElement("span");
    label.className = "label"; label.textContent = state;
    const bar = document.createElement("span"); bar.className = "bar";
    bar.style.width = (100 * count / total * 0.7) + "%";
    const num = document.createElement("span");
    num.className = "count"; num.textContent = count;
    row.append(label, bar, num); el.append(row);
  }
}

function onFrame(f) {
  switch (f.type) {
    case "meta": {
      let line = f.protocol + "  n=" + f.n + "  engine=" + f.engine;
      if (f.trial !== undefined) line += "  trial=" + f.trial;
      $("runline").textContent = line;
      break;
    }
    case "census":
      $("step").textContent = f.step;
      $("effective").textContent = f.effective;
      $("edges").textContent = f.edges;
      renderCensus(f.counts);
      break;
    case "fault": {
      if (faultCount === 0) $("faults").textContent = "";
      faultCount += 1;
      const d = document.createElement("div");
      d.textContent = "step " + f.step + ": " + f.kinds.join(", ") +
        "  (edges " + f.edges + ")";
      $("faults").prepend(d);
      renderCensus(f.counts);
      break;
    }
    case "run-end": {
      const el = $("state");
      el.textContent = f.converged ? "converged" : ("stopped: " + f.stop_reason);
      el.className = f.converged ? "ok" : "bad";
      $("step").textContent = f.steps;
      $("effective").textContent = f.effective;
      break;
    }
    case "status": {
      const done = f.completed, total = f.total || 1;
      $("progressfill").style.width = (100 * done / total) + "%";
      $("progresslabel").textContent =
        done + "/" + f.total + " trials (" + f.cached + " cached)";
      $("state").textContent = f.state;
      break;
    }
    case "end": {
      const el = $("state");
      el.textContent = f.state + (f.error ? ": " + f.error : "");
      el.className = f.state === "done" ? "ok" : "bad";
      break;
    }
  }
}

const source = new EventSource("events");
source.onmessage = (msg) => onFrame(JSON.parse(msg.data));
source.onerror = () => {
  // The server closes the stream once the run ends; stop retrying.
  if ($("state").className) source.close();
};
</script>
</body>
</html>
"""


def render_page(title: str) -> str:
    """The dashboard page with ``title`` (HTML-escaped) in the header
    and tab."""
    return _PAGE.replace("__TITLE__", html.escape(title))


def census_snapshot(log: FrameLog) -> dict:
    """Fold a job's frames into the current-picture JSON payload.

    ``end`` is the job's terminal ``end`` frame, ``None`` while the job
    runs: a ``run-end`` frame closes only one trial of it.
    """
    latest_census: dict | None = None
    latest_meta: dict | None = None
    latest_status: dict | None = None
    end: dict | None = None
    faults: list[dict] = []
    frames = log.frames()
    for frame in frames:
        kind = frame.get("type")
        if kind == "census":
            latest_census = frame
        elif kind == "meta":
            latest_meta = frame
        elif kind == "status":
            latest_status = frame
        elif kind == "fault":
            faults.append(frame)
        elif kind == "end":
            end = frame
    return {
        "ok": True,
        "frames": len(frames),
        "dropped": log.dropped,
        "closed": log.closed,
        "meta": latest_meta,
        "status": latest_status,
        "census": latest_census,
        "faults": faults[-CENSUS_FAULT_TAIL:],
        "end": end,
    }
