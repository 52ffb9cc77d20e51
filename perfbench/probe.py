"""Helper processes started by run.py, which itself imports no numpy.

    python3 probe.py setup X1 Y1 [X2 Y2 ...]
        Import sparsecc, then ingest and normalize each (X, Y) pair: the work
        every CLI run pays before any compute. run.py times the whole process.
    python3 probe.py gemm N
        Median GFLOP/s of one N x 1024 by N x 1024 gemm, the roofline stand-in
        for the product kernel. Start it with the BLAS thread variables at 1.
    python3 probe.py calibrate {cache,memory}
        Seconds per repetition of a fixed Python and numpy loop that shares no
        code with sparsecc: the machine's speed at that moment.
    python3 probe.py gen WORKLOAD SEED DIR
        Write the workload's inputs into DIR; print their paths as JSON.
    python3 probe.py check WORKLOAD SEED OUT INPUT...
        Print the oracle's problems with the CLI outputs in OUT as JSON.
    python3 probe.py env
        Print the numpy, BLAS and Python builds as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


def setup(paths: list[str]) -> None:
    from sparsecc import dataset

    for x_path, y_path in zip(paths[0::2], paths[1::2]):
        dataset.normalize_pair(dataset.ingest(x_path), dataset.ingest(y_path))


def gemm(n: int, reps: int = 50) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((n, 1024)), rng.standard_normal((n, 1024))
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        x.T @ y
        times.append(time.perf_counter() - t)
    return 2.0 * n * 1024 * 1024 / statistics.median(times) / 1e9


def calibrate(kind: str) -> float:
    """Seconds per repetition of a fixed loop: the mean of the middle half of
    the timed repetitions, after one untimed. ``cache`` is an interpreted
    loop like the program's union-find, then numpy element-wise passes like
    its rank-1 product loop, all in cache. ``memory`` adds random reads from
    a 32 MiB array and from a half-million-entry dict and list, like a large
    Python heap: their speed follows other tenants' use of the shared L3
    cache and memory."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal(1 << 17)
    b = a.copy()

    def cache() -> None:
        s = 0
        for i in range(60000):
            s += i * i
        for _ in range(20):
            (a * b + a).sum()

    if kind == "cache":
        work, reps = cache, 30
    else:
        big = rng.standard_normal(1 << 22)
        picks = rng.integers(0, big.size, 1 << 18)
        table = {i: i for i in range(1 << 19)}
        parent = list(range(1 << 19))
        keys = rng.integers(0, 1 << 19, 40000).tolist()

        def work() -> None:
            cache()
            for _ in range(2):
                big[picks].sum()
            s = 0
            for k in keys:
                s += table[k] + parent[k]

        reps = 12
    work()
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        work()
        times.append(time.perf_counter() - t)
    times.sort()
    middle = times[reps // 4: reps - reps // 4]
    return sum(middle) / len(middle)


def env() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})",
        "python": sys.version.split()[0],
    }


def main(cmd: str, args: list[str]) -> None:
    if cmd == "setup":
        setup(args)
    elif cmd == "gemm":
        print(repr(gemm(int(args[0]))))
    elif cmd == "calibrate":
        print(repr(calibrate(args[0])))
    elif cmd == "gen":
        import gen

        print(json.dumps([str(p) for p in gen.generate(args[0], int(args[1]), Path(args[2]))]))
    elif cmd == "check":
        import oracle

        inputs = [Path(p) for p in args[3:]]
        print(json.dumps(oracle.check(args[0], inputs, Path(args[2]), int(args[1]))))
    elif cmd == "env":
        print(json.dumps(env()))
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
