"""skyfade benchmark: five CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the real CLI in a closed loop: one command at a time,
each in a fresh worker process (``worker.py`` calls ``skyfade.cli.main``),
until the commands have used ``--seconds`` of wall-clock time.  Inputs
are generated from ``--seed`` by ``inputs.py`` and cached under
``.bench_cache/``, outside every timed region; outputs are checked by
``checks.py`` after each command, also untimed.

With ``--trace 0`` the last line of standard output is a JSON result
holding the end-to-end metrics (medians over the run's commands).  With
``--trace 1`` one untraced command is followed by traced ones, and the
result holds the per-layer metrics: self times, call counts and computed
counts from ``tracer.py``, plus the tracing overhead.  The full record
(environment block, every sample, workload-specific metrics) goes to
``.bench_cache/results/`` and the spans to ``.bench_cache/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

WORKLOADS = (
    "annotate-40k",
    "fit-10k",
    "evaluate-gap",
    "predict-holdout",
    "simulate-4k",
)
# A run keeps issuing commands until they used --seconds, but always
# issues at least this many, so set-up and wall time are medians.
MIN_COMMANDS = 3
# Every run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
# Defined on some workloads only, so reported in the record and the table
# but not in the result line, whose metrics must exist on every workload.
WORKLOAD_SPECIFIC = {
    "predictions_per_s": "1/s",
    "rmse_db": "dB",
    "gap_db": "dB",
    "failed_frac": "ratio",
}

LAYERS = (
    "cli",
    "dataio",
    "geometry",
    "propagation",
    "correlation",
    "kriging",
    "evaluation",
    "fieldsim",
)
# Per-layer metrics: name -> (unit, kind, source).  "self" and "calls" read
# the tracer's per-function statistics, "count" its computed counts,
# "layer" sums self time over a module, "derived" is computed below.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "layer", layer) for layer in LAYERS},
    "dataio.ingest_csv.self_s": ("s", "self", "dataio.ingest_csv"),
    "dataio.load_targets_csv.self_s": ("s", "self", "dataio.load_targets_csv"),
    "dataio.write.self_s": ("s", "self", "dataio.write_"),
    "dataio.rows_read": ("count", "count", "dataio.rows_read"),
    "dataio.rows_skipped": ("count", "count", "dataio.rows_skipped"),
    "geometry.compute_tilt.calls": ("count", "calls", "geometry.compute_tilt"),
    "geometry.compute_tilt.self_s": ("s", "self", "geometry.compute_tilt"),
    "propagation.decompose_sf.self_s": ("s", "self", "propagation.decompose_sf"),
    "propagation.two_ray_rsrp.calls": ("count", "calls", "propagation.two_ray_rsrp"),
    "propagation.two_ray_rsrp.self_s": ("s", "self", "propagation.two_ray_rsrp"),
    "correlation.empirical_correlogram.calls": (
        "count", "calls", "correlation.empirical_correlogram"),
    "correlation.empirical_correlogram.self_s": (
        "s", "self", "correlation.empirical_correlogram"),
    "correlation.correlogram.pairs_scanned": (
        "count", "count", "correlation.correlogram.pairs_scanned"),
    "correlation.correlogram.pairs_in_range": (
        "count", "count", "correlation.correlogram.pairs_in_range"),
    "correlation.correlogram.useful_ratio": ("ratio", "derived", None),
    "correlation.estimate_tilt_profile.self_s": (
        "s", "self", "correlation.estimate_tilt_profile"),
    "correlation.estimate_elev_profile.self_s": (
        "s", "self", "correlation.estimate_elev_profile"),
    "correlation.fit_dedm.self_s": ("s", "self", "correlation.fit_dedm"),
    "correlation.correlation_matrix.calls": (
        "count", "calls", "correlation.correlation_matrix"),
    "correlation.correlation_matrix.self_s": (
        "s", "self", "correlation.correlation_matrix"),
    "correlation.correlation_matrix.entries": (
        "count", "count", "correlation.correlation_matrix.entries"),
    "correlation.correlation_matrix.entries_per_prediction": (
        "count", "derived", None),
    "kriging.predict_sf_batch.calls": ("count", "calls", "kriging.predict_sf_batch"),
    "kriging.predict_sf_batch.self_s": ("s", "self", "kriging.predict_sf_batch"),
    "kriging.solve_gflop": ("GFLOP", "count", "kriging.solve_gflop"),
    "kriging.dedup_training.self_s": ("s", "self", "kriging.dedup_training"),
    "kriging.predictions": ("count", "count", "kriging.predictions"),
    "kriging.escalations": ("count", "count", "kriging.escalations"),
    "kriging.escalation_ratio": ("ratio", "derived", None),
    "kriging.floored_variances": ("count", "count", "kriging.floored_variances"),
    "kriging.pi95_coverage": ("ratio", "fact", "pi95_coverage"),
    "kriging.rmse_db": ("dB", "fact", "rmse_db"),
    "evaluation.run_evaluation.self_s": ("s", "self", "evaluation.run_evaluation"),
    "evaluation.trials": ("count", "count", "evaluation.trials"),
    "evaluation.gap_db": ("dB", "fact", "gap_db"),
    "fieldsim.sample_sf_field.self_s": ("s", "self", "fieldsim.sample_sf_field"),
    "fieldsim.generate_trajectory.self_s": (
        "s", "self", "fieldsim.generate_trajectory"),
    "fieldsim.synthesize_dataset.self_s": ("s", "self", "fieldsim.synthesize_dataset"),
    "fieldsim.field_samples": ("count", "count", "fieldsim.field_samples"),
    "bench.trace_overhead_s": ("s", "derived", None),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment block


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "skyfade").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_thread_env": {
            key: os.environ.get(key)
            for key in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
            )
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# One command


def _digest_outputs(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_command(manifest, in_dir: Path, run_dir: Path, index: int, trace: bool,
                timeout_s: float) -> dict:
    """Spawn one worker, wait for it, and return its timings.

    ``wall_s`` runs from just before the spawn to the reaping of the
    process; ``setup_s`` from the spawn to the first work call the worker
    saw.  Peak RSS is the worker's own high-water mark, or ``wait4``'s
    when the worker could not report it.
    """
    from tracer import now

    out_dir = run_dir / "out"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir()
    record_path = run_dir / f"record-{index}.json"
    spec_path = run_dir / f"spec-{index}.json"
    spec = {
        "src": str(SRC),
        "argv": [a.replace("{run}", str(out_dir)) for a in manifest["argv"]],
        "trace": trace,
        "run_id": f"{manifest['workload']}/{manifest['seed']}/{index}",
        "record": str(record_path),
    }
    spec_path.write_text(json.dumps(spec))
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        start = now()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=in_dir,
            stdout=so,
            stderr=se,
        )
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    first_call = record.get("first_call")
    return {
        "rc": proc.returncode,
        "wall_s": end - start,
        "setup_s": first_call - start if first_call is not None else None,
        "peak_rss_mb": (record.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
        "traced": trace,
        "trace": record.get("trace"),
        "missing": record.get("missing", []),
        "stderr": (out_dir / "stderr.txt").read_text(errors="replace"),
        "digest": _digest_outputs(out_dir),
    }


def check_command(workload, manifest, in_dir, run_dir, sample, verdicts) -> dict:
    """Untimed output check; identical outputs reuse the earlier verdict."""
    from checks import CHECKS, Verdict

    if sample["rc"] != 0:
        tail = sample["stderr"].strip().splitlines()[-1:] or [""]
        return {"attempted": 1, "failed": 1,
                "problems": [f"exit code {sample['rc']}: {tail[0]}"], "facts": {}}
    if sample["digest"] not in verdicts:
        try:
            v = CHECKS[workload](manifest, in_dir, run_dir / "out", sample["stderr"])
        except Exception as exc:  # a malformed output is a failed check
            v = Verdict()
            v.expect(False, f"output unreadable: {exc!r}")
        v.attempted += 1  # the exit status itself
        verdicts[sample["digest"]] = {
            "attempted": v.attempted,
            "failed": v.failed,
            "problems": v.problems,
            "facts": v.facts,
        }
    return verdicts[sample["digest"]]


# ---------------------------------------------------------------------------
# Metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(manifest, samples, verdict_list) -> tuple[dict, dict]:
    """Medians over the untraced commands, plus workload-specific extras."""
    samples = [s for s in samples if not s["traced"]]
    rows = manifest["rows"]
    metrics = {
        "wall_s": _median([s["wall_s"] for s in samples]),
        "setup_s": _median([s["setup_s"] for s in samples]),
        "rows_per_s": _median([rows / s["wall_s"] for s in samples]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in samples]),
    }
    attempted = sum(v["attempted"] for v in verdict_list)
    failed = sum(v["failed"] for v in verdict_list)
    extra = {"failed_frac": failed / attempted if attempted else None}
    predictions = manifest.get("predictions", manifest.get("targets"))
    if predictions:
        extra["predictions_per_s"] = _median([predictions / s["wall_s"] for s in samples])
    facts = verdict_list[0]["facts"] if verdict_list else {}
    for key in ("rmse_db", "gap_db"):
        if facts.get(key) is not None:
            extra[key] = facts[key]
    return metrics, extra


def _per_command_layer_metrics(trace: dict, facts: dict) -> dict:
    stats, counts = trace["stats"], trace["counts"]
    out = {}
    for name, (_unit, kind, source) in PER_LAYER.items():
        if kind == "layer":
            out[name] = sum(s[2] for fn, s in stats.items() if fn.split(".")[0] == source)
        elif kind == "self":
            out[name] = sum(s[2] for fn, s in stats.items() if fn.startswith(source))
        elif kind == "calls":
            out[name] = stats.get(source, [0])[0]
        elif kind == "count":
            out[name] = counts.get(source, 0.0)
        elif kind == "fact":
            out[name] = facts.get(source) or 0.0
    scanned = out["correlation.correlogram.pairs_scanned"]
    out["correlation.correlogram.useful_ratio"] = (
        out["correlation.correlogram.pairs_in_range"] / scanned if scanned else 0.0
    )
    predictions = out["kriging.predictions"]
    out["correlation.correlation_matrix.entries_per_prediction"] = (
        out["correlation.correlation_matrix.entries"] / predictions if predictions else 0.0
    )
    systems = counts.get("kriging.systems", 0.0)
    out["kriging.escalation_ratio"] = out["kriging.escalations"] / systems if systems else 0.0
    return out


def per_layer(samples, verdict_list) -> dict:
    traced = [(s, v) for s, v in zip(samples, verdict_list) if s["traced"] and s["trace"]]
    plain = [s["wall_s"] for s in samples if not s["traced"]]
    rows = [_per_command_layer_metrics(s["trace"], v["facts"]) for s, v in traced]
    metrics = {name: _median([r.get(name) for r in rows]) or 0.0 for name in PER_LAYER}
    traced_wall = _median([s["wall_s"] for s, _v in traced])
    metrics["bench.trace_overhead_s"] = (
        traced_wall - _median(plain) if traced_wall is not None and plain else 0.0
    )
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skyfade" / "cli.py").is_file():
        print(f"bench: no skyfade sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import ensure_inputs
    from tracer import now

    t_begin = now()
    in_dir, manifest = ensure_inputs(args.workload, args.seed, CACHE / "inputs")
    env = environment(args.workload, args.seed)
    run_dir = CACHE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    trace = bool(args.trace)
    samples, verdict_list, verdicts = [], [], {}
    used = 0.0
    try:
        while True:
            index = len(samples)
            traced = trace and index > 0  # one untraced command first
            remaining = RUN_LIMIT_S - (now() - t_begin)
            sample = run_command(manifest, in_dir, run_dir, index, traced, remaining)
            samples.append(sample)
            verdict_list.append(
                check_command(args.workload, manifest, in_dir, run_dir, sample, verdicts)
            )
            used += sample["wall_s"]
            enough = len(samples) >= MIN_COMMANDS and used >= args.seconds
            room = RUN_LIMIT_S - (now() - t_begin) > 1.5 * sample["wall_s"]
            if enough or not room or sample["rc"] != 0:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics, extra = end_to_end(manifest, samples, verdict_list)
    layer = per_layer(samples, verdict_list) if trace else {}
    attempted = sum(v["attempted"] for v in verdict_list)
    failed = sum(v["failed"] for v in verdict_list)
    traces = [s["trace"] for s in samples if s["trace"]]
    missing = sorted({m for s in samples for m in s["missing"]}
                     | {m for t in traces for m in t["missing"]})
    unobserved = sorted({u for t in traces for u in t["unobserved"]})

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (CACHE / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "env": env,
        "metrics": metrics,
        "workload_metrics": extra,
        "per_layer": layer,
        "attempted": attempted,
        "failed": failed,
        "missing": missing,
        "unobserved": unobserved,
        "commands": [
            {k: s[k] for k in ("rc", "wall_s", "setup_s", "peak_rss_mb", "traced")}
            for s in samples
        ],
        "problems": sorted({p for v in verdict_list for p in v["problems"]}),
    }
    (CACHE / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if trace:
        (CACHE / "traces").mkdir(parents=True, exist_ok=True)
        (CACHE / "traces" / f"{stem}.json").write_text(json.dumps(traces))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(samples)} commands,"
          f" {used:.1f} s measured, checks {failed}/{attempted} failed")
    for name, value in metrics.items():
        print(f"  {name:<20} {value!s:>24} {END_TO_END[name]:<7}"
              f" (median of {sum(not s['traced'] for s in samples)})")
    for name, value in extra.items():
        print(f"  {name:<20} {value!s:>24} {WORKLOAD_SPECIFIC[name]}")
    for name, value in layer.items():
        print(f"  {name:<56} {value!s:>24} {PER_LAYER[name][0]}")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    for name in missing:
        print(f"  missing from the package: {name}")
    for note in unobserved:
        print(f"  count not observed: {note}")

    chosen = layer if trace else metrics
    units = {n: u[0] for n, u in PER_LAYER.items()} if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if value is not None else 0.0, "unit": units[name]}
            for name, value in chosen.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
