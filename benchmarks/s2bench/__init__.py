"""s2bench: the repo's end-to-end benchmark (see README.md beside this file).

Four focused workloads drive the verifier through its public API from
outside; nothing under ``src/`` or ``tests/`` is touched.  Run one with::

    python3 benchmarks/s2bench/__main__.py --workload cold-ft8-socket --seed 1
"""
