"""perfbench — the one end-to-end + per-layer benchmark of this repository.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the contract entry point named by ``BENCHMARK.json``;
``PYTHONPATH=src python -m perfbench --workload all --seed 7`` is the
same code driven over every workload for a human.  See ``README.md``.
"""
