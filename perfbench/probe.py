"""Set-up probe: import the program, build a ready Session, print ``ready``.

``run.py`` starts this in fresh interpreters and times each from process
start to the ``ready`` line; ``setup_s`` is the median, scaled to the
reference host speed.  The probe measures that speed itself, with two
``refloop.core_sample`` runs before the imports and two after the
Session is built.  After ``ready`` it prints the seconds it spent on its
own measuring, then the four sample times.  The program's source directory
is the first argument.
"""

import sys
from time import perf_counter

import refloop

start = perf_counter()
before = [refloop.core_sample(), refloop.core_sample()]
own = perf_counter() - start

sys.path.insert(0, sys.argv[1])

import repro  # noqa: E402,F401
from repro.experiments.fig12_slack import run_fig12  # noqa: E402,F401
from repro.experiments.fig13_schemes import run_fig13  # noqa: E402,F401
from repro.experiments.table3_speedups import run_table3  # noqa: E402,F401
from repro.runtime import SerialExecutor, Session  # noqa: E402

Session(store="memory://", executor=SerialExecutor(), shards=1)
start = perf_counter()
after = [refloop.core_sample(), refloop.core_sample()]
own += perf_counter() - start
print("ready", own, *before, *after, flush=True)
