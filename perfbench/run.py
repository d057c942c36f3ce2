#!/usr/bin/env python3
"""End-to-end benchmark of the HLS QoR predictor.

Run from the repository root::

    python3 perfbench/run.py --workload serve_source --seed 1 --seconds 16 --trace 0

Workloads (see ``perfbench/workloads.json`` for each one's record):

- ``serve_source`` — open-loop C-source traffic on a rate ladder against
  a registry-loaded :class:`repro.serve.PredictionServer`;
- ``dse_sweep`` — two greedy DSE campaigns over the 54 explorable suite
  kernels through one shared :class:`repro.serve.PredictionService`;
- ``build_train`` — cold + warm sharded dataset builds, a streamed
  hierarchical fit, scoring on the 56 real-case kernels;
- ``stream_large`` — directive rewrites of one >=100k-node CDFG served
  through the block-streaming path.

Inputs derive from ``--seed``. ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``, the same four for every workload
(``setup_s``, ``peak_rss_mb``, ``throughput_per_s``, ``latency_p50_ms``;
``workloads.json`` says what each one's operation is); ``--trace 1`` runs
the traced pass and prints every per-layer metric, 0.0 for layers the
workload does not reach. Workload-specific metrics (``serve.max_rps``,
``dse.adrs``, ...) go to the report under ``.perfbench_out/`` with the
spans. The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is non-zero when a correctness
check fails.
"""

import time

LAUNCHED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pbench.host import nproc, pin_environment  # noqa: E402

pin_environment()  # before numpy loads anywhere

WORKLOADS = ("serve_source", "dse_sweep", "build_train", "stream_large")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())[args.workload]

    import importlib

    from pbench.common import Context, Result, result_metrics
    from pbench.host import fingerprint
    from pbench.spans import SpanRecorder

    workdir = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        launched=LAUNCHED,
        spec=spec,
        spans=SpanRecorder() if args.trace else None,
    )
    result = Result()
    try:
        module = importlib.import_module(f"pbench.{args.workload}")
        module.run(ctx, result, nproc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    metrics, other, not_measured = result_metrics(manifest, ctx.trace, result.metrics)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(root),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks": result.checks,
        "metrics": metrics,
        "not_measured": not_measured,
        "workload_metrics": other,
        "details": result.details,
    }
    out = root / OUT_DIR
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    if ctx.spans is not None:
        ctx.spans.write(out / f"{stem}.spans.jsonl")
    for name, check in result.checks.items():
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'} {check['detail']}")
    for name, entry in sorted({**other, **metrics}.items()):
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        sys.exit(1)
