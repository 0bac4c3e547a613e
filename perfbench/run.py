"""Replication-table benchmark for netgate.

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from its src/.
Each untraced iteration does what `netgate run` does (load the network,
partition it, run the table with the preloaded graph and partition, write
report.csv and report.json) and checks the report. With --trace 1 the run
replays one table around each layer's public entry points and reports
per-layer metrics instead. Every metric is printed with its unit; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Inputs, reports, spans and full results go under
perfbench/_work/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_package() -> None:
    """Import netgate from this checkout's src/, never an installed copy,
    with single-threaded BLAS, so that the table's own threads (at most
    nproc) are the only busy ones. Work in the checkout root, where the
    relative paths of the generated configs resolve."""
    os.chdir(ROOT)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import netgate
    except ImportError as exc:
        raise SystemExit(f"error: cannot import netgate from {src}: {exc}") from None
    if Path(netgate.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: netgate was imported from {netgate.__file__}, not {src}")


def main() -> int:
    use_checkout_package()
    from perfbench import bench

    return bench.main()


if __name__ == "__main__":
    raise SystemExit(main())
