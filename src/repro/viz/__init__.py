"""Visualization helpers: ASCII renderings and DOT export.  The live
``repro-net watch`` dashboard is a page the experiment service serves
(:mod:`repro.service.dashboard`)."""

from repro.viz.ascii_art import (
    adjacency_art,
    component_summary,
    render_line,
    render_star,
    state_summary,
)
from repro.viz.dot import (
    configuration_to_dot,
    trace_to_dot,
    trace_to_dot_frames,
)

__all__ = [
    "adjacency_art",
    "component_summary",
    "configuration_to_dot",
    "render_line",
    "render_star",
    "state_summary",
    "trace_to_dot",
    "trace_to_dot_frames",
]
