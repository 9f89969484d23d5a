"""The repository benchmark: closed-loop serving and the offline anytime run.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` measures one workload and prints one JSON result as its
last line of output.  ``python3 perfbench/report.py`` prints the traced
per-layer report of every workload plus an ungated serve n-sweep.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

#: The checkout this benchmark belongs to; the program is its ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Threads of the BLAS behind NumPy's matrix products.  Set before NumPy
#: is first imported.  On a host of few shared cores a BLAS thread pool
#: woken for each small product measures the scheduler, not the program:
#: with one thread per core, instance generation ran 3-10 times slower
#: for tens of seconds after the host had idled.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def use_checkout() -> None:
    """Make ``import repro`` load the checkout's own sources.

    Raises :class:`FileNotFoundError` when the checkout holds no program
    (only the benchmark's own files), so the runner can refuse to report.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def stop_children() -> None:
    """Stop and wait for every process this one started.

    The sharded runtime joins its workers when closed; this also covers a
    run that raised before closing them.  Shared memory (the sharded
    runtime's instance and post log) starts the multiprocessing resource
    tracker, a process that would otherwise outlive this one: it is
    stopped and waited for last, once no worker holds its pipe open.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
