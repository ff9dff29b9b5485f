"""Benchmark for fusekd: workloads, output checks, metrics and layer tracing.

``run.py`` one directory up is the command line. Modules:

- ``machine``: thread pinning and the machine/environment record;
- ``spans``: the in-memory span recorder and the attribute patcher;
- ``layers``: the wrappers that time fusekd's public functions from the
  outside, and the per-layer metrics computed from their spans;
- ``workloads``: set-up, the three timed workloads, checks and end-to-end
  metrics.

Only ``machine`` may be imported before the thread variables are pinned;
the others import numpy.
"""
