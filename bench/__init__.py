"""The repository's benchmark: seeded workloads from the HTTP client to
the graph kernels, checked against oracles, with a per-layer trace
taken from outside the program.

Run ``python -m bench run`` from the repository root; see
``bench/README.md`` for the workloads, metrics and process layout.
Timing, percentiles and memory readings come from this package's own
code, never from ``repro.obs``, so a change to the program's
observability cannot move the yardstick.
"""
