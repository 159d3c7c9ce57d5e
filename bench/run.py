#!/usr/bin/env python3
"""ctcseq benchmark: training, long-sequence training and decoding.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from a checkout. It imports ``ctcseq`` only from ``src/`` beside
this directory, so without the sources it exits with code 2 and prints no
result. BLAS and OpenMP are pinned to one thread before numpy loads.

The last line of standard output is the JSON result. With ``--trace 0`` its
metrics are the end-to-end metrics of an untraced run; with ``--trace 1``
they are the per-layer metrics of a separately traced pass. The lines
before it repeat every metric with its unit, the sample counts and the
environment; the same report is written to ``bench/out/``.
``--workload all`` runs each workload in its own process, one after another.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train", "train_long", "decode")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=int, default=30, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one clip of each kind per length; for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {workload}", flush=True)
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "ctcseq" / "__init__.py").is_file():
        print(f"error: ctcseq sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ctcseq

    if Path(ctcseq.__file__).resolve().parent != src / "ctcseq":
        print(f"error: imported ctcseq from {ctcseq.__file__}, not {src}", file=sys.stderr)
        return 2

    import envinfo
    import workloads

    probe = envinfo.EnvironmentProbe(ROOT)
    out_dir = BENCH_DIR / "out"
    result, report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   args.tiny, out_dir)
    report["environment"] = probe.finish()
    report["result"] = result
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for error in report["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print("samples " + json.dumps(report["info"]))
    print("env " + json.dumps(report["environment"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
