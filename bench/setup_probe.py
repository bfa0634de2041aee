"""Cold start of one workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Prints the seconds from before ``import dislodyn`` until the workload's
first trajectory could start: the library imported and the domain and
kernel evaluator built, rescaled to the reference speed (``speed.py``;
numpy is not loaded before the clock starts, so the probe samples only the
scalar-Python part of the reference loop).  ``run.py`` calls this several
times per run and reports the median as ``setup_s``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

if __name__ == "__main__":
    import speed

    with speed.Sampler(solver=False) as sampler:
        import workloads  # imports numpy, scipy and dislodyn

        workloads.WORKLOADS[sys.argv[1]].setup()
    print(repr(sampler.reference_s()))
