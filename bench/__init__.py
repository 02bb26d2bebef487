"""The repo benchmark: commit-path end-to-end metrics and an outside-in layer budget.

Entry points (all stdlib-only, run from the repo root):

* ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1`` —
  one measured run of one workload (the command ``BENCHMARK.json`` names);
* ``python3 bench/suite.py`` — every workload, repeated, collected to a file;
* ``python3 bench/compare.py A.json B.json`` — the A/B (and A/A) verdict table.

``bench/README.md`` is the metric glossary.
"""
