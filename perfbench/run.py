"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload desk32 --seed 1 --seconds 15 --trace 0

Run from the repository root.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones; the last line of standard output is the
JSON result.  The lfam package is imported from ./src of the checkout, so
the benchmark measures the sources next to it and refuses to run without
them.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# One BLAS thread, so all load is one thread of one process.  With two BLAS
# threads on a shared 2-vCPU host, every matrix product also waits for the
# second vCPU: in five alternating pairs of 8 s eval128 runs, medians ranged
# 238-339 ms with two threads and 282-321 ms with one.
BLAS_THREADS = "1"


def main() -> int:
    from catalog import SELFTEST_WORKLOADS, WORKLOADS

    known = {**WORKLOADS, **SELFTEST_WORKLOADS}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(known))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first timed unit and print setup time and "
                         "the warm-up fingerprint (used for repeated set-up)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "lfam" / "__init__.py").is_file():
        print(f"error: no lfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import bench

    wl = known[args.workload]
    if args.setup_only:
        return bench.setup_only(wl, args.seed, _T0)
    return bench.run(wl, args.seed, args.seconds, bool(args.trace), _T0)


if __name__ == "__main__":
    sys.exit(main())
