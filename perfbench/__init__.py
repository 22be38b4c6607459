"""Outside-in benchmark for the potbench workbench.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
generates the workload's scenario files from the seed, runs them through the
public functions of ``artifact.cli`` in fresh single-threaded interpreters,
checks every output against ``reference.json``, and prints one JSON result as
the last line of standard output.  Nothing in ``src/`` knows about it.
"""
