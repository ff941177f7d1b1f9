"""Benchmark of the scanplan CLI on four seeded workloads.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A benchmark runner calls the command of BENCHMARK.json with all four flags,
one workload at a time and ``--seconds`` set to its ``run_seconds``; with no
flags, every workload runs for ``run_seconds`` at seed 0.

Each repetition runs ``scanplan.cli.main`` in a fresh interpreter
(closed loop, one client: the next repetition starts after the previous one
exits). Inputs are generated from the seed before timing and cached under
``.bench_work/``. With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` traced and untraced repetitions alternate and the
per-layer metrics are reported. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an attempt is one
repetition (one CLI request). See bench/README.md for how to read it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import grade
import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
MAX_CLOUD_ERR_MM = 20.0
UNGRADED = {"cloud_err_mm": math.inf, "surfaces_matched": None}

RUN_STAGES = [
    ("register", ["registered.xyz"]),
    ("filter", ["filtered.xyz"]),
    ("segment", ["surfaces.json"]),
    ("cluster", ["clusters.json"]),
    ("plan", ["plan.json"]),
    ("render", ["scene_top.svg", "scene_elevation.svg"]),
]
REGISTER_STAGES = [("register", ["merged.xyz"])]

# Metric names and units come from BENCHMARK.json, the one list of them.
# A per-layer name is "<span>.<key>": key "s" is self time, "calls" the call
# count, "failed" the calls that raised, anything else a summed count.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def digest_dir(out_dir: Path) -> dict:
    """sha256 of every artifact file under ``out_dir``, by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def count_operations(stages, out_dir: Path, rc: int) -> tuple[int, int, int, bool]:
    """(attempted, failed, plans failed, exit explained) for one repetition.

    An operation is one stage or one per-surface plan. A stage failed when
    its artifact is missing; a non-zero exit that per-surface plan failures
    do not explain counts the last stage reached as failed.
    """
    attempted = failed = 0
    for _, files in stages:
        attempted += 1
        if not all((out_dir / f).is_file() for f in files):
            failed += 1
            break
    plans_failed = 0
    plan_path = out_dir / "plan.json"
    if plan_path.is_file():
        outcomes = grade.read_plan_outcomes(plan_path)
        attempted += len(outcomes)
        plans_failed = sum(status != "ok" for status in outcomes)
    explained = failed == 0 and rc == (3 if plans_failed else 0)
    if not explained and failed == 0:
        failed = 1
    return attempted, failed + plans_failed, plans_failed, explained


def run_once(wl, input_path: Path, out_dir: Path, spans_path: Path | None) -> dict:
    """One CLI process: timings, peak RSS, exit code and artifact digests."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    logs = out_dir.parent
    timing_path = logs / "timing.json"
    timing_path.unlink(missing_ok=True)
    argv = [sys.executable, str(Path(__file__).with_name("child.py")),
            str(timing_path), str(spans_path) if spans_path else "-",
            *wl.cli_args(input_path, out_dir)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(logs / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(logs / "stderr.txt"), flags, 0o644)]

    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    t_exit = time.perf_counter()

    rc = os.waitstatus_to_exitcode(status)
    rep = {"rc": rc, "wall_s": t_exit - t0, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "stderr": (logs / "stderr.txt").read_text(errors="replace")}
    if timing_path.is_file():
        timing = json.loads(timing_path.read_text(encoding="ascii"))
        if not Path(timing["module"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"scanplan was imported from {timing['module']}, not {SRC}")
        rep["setup_s"] = timing["import_done"] - t0
        rep["run_s"] = timing["main_end"] - timing["main_start"]
    rep["digests"] = digest_dir(out_dir)
    stages = RUN_STAGES if wl.verb == "run" else REGISTER_STAGES
    (rep["ops"], rep["ops_failed"], rep["plans_failed"],
     rep["explained"]) = count_operations(stages, out_dir, rc)
    rep["ok"] = rep["explained"] and "run_s" in rep and "Traceback" not in rep["stderr"]
    if spans_path is not None and spans_path.is_file():
        rep["layers"] = tracer.summarize(json.loads(spans_path.read_text()))
    return rep


def grade_outputs(wl, out_dir: Path) -> dict:
    """Ground-truth quality of one repetition's artifacts."""
    rects = wl.truth
    result = dict(UNGRADED)
    cloud = wl.output_cloud(out_dir)
    if cloud.is_file():
        result["cloud_err_mm"] = grade.cloud_error_mm(grade.read_points(cloud), rects)
    surfaces = out_dir / "surfaces.json"
    if wl.min_surfaces is not None and surfaces.is_file():
        result["surfaces_matched"] = grade.surfaces_matched(
            grade.read_planes(surfaces), rects)
    return result


def layer_metrics(layers: dict) -> dict:
    """The PER_LAYER values (except trace.overhead_s) of one traced repetition."""
    values = {}
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        entry = layers.get(span, {})
        values[name] = float(entry.get(key, 0))
    rounds = layers.get("segmentation.ransac_plane", {}).get("calls", 0)
    accepted = layers.get("segmentation.extract_surfaces", {}).get("accepted", 0)
    values["segmentation.accept_ratio"] = accepted / rounds if rounds else 0.0
    return values


def timing_summary(values: list[float]) -> tuple[float, str]:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    med = statistics.median(values)
    n = len(values)
    if n < 11:
        return med, f"tail n/a (needs >= 11 samples, n={n})"
    q = 100.0 * (n - 10) / n
    return med, f"p{q:.0f} {sorted(values)[n - 11]:.4f}"


def measure(wl, seed: int, input_path: Path, seconds: float, trace: bool) -> dict:
    """Repeat the CLI command on ``input_path`` for ``seconds``."""
    run_dir = WORK / "runs" / wl.name
    out_dir = run_dir / "out"
    spans_path = run_dir / "spans.json"
    reps: list[dict] = []
    quality = None
    start = time.perf_counter()
    # Start another repetition only if a typical one still ends in time.
    while len(reps) < MIN_REPS or (
            time.perf_counter() - start
            + statistics.median(r["wall_s"] for r in reps) <= seconds):
        traced = trace and len(reps) % 2 == 1
        if traced:
            spans_path.unlink(missing_ok=True)
        rep = run_once(wl, input_path, out_dir, spans_path if traced else None)
        rep["traced"] = traced
        if quality is None and rep["ok"]:
            quality = grade_outputs(wl, out_dir)
        reps.append(rep)
    shutil.rmtree(out_dir, ignore_errors=True)

    reference = next((r["digests"] for r in reps if r["ok"]), reps[0]["digests"])
    for rep in reps:
        rep["same_bytes"] = rep["digests"] == reference
        if not rep["same_bytes"]:
            rep["ops_failed"] = rep["ops"]
    quality = quality or UNGRADED
    grade_ok = quality["cloud_err_mm"] <= MAX_CLOUD_ERR_MM and (
        wl.min_surfaces is None
        or (quality["surfaces_matched"] or 0) >= wl.min_surfaces)
    failed_reps = sum(not (r["ok"] and r["same_bytes"]) for r in reps)
    return {"workload": wl.name, "seed": seed, "reps": reps, "quality": quality,
            "reference": reference, "grade_ok": grade_ok,
            "correct": failed_reps == 0 and grade_ok, "failed_reps": failed_reps}


def end_to_end_metrics(res: dict) -> dict:
    plain = [r for r in res["reps"] if not r["traced"] and "run_s" in r]
    metrics = {}
    for name, unit in END_TO_END:
        if name == "cloud_err_mm":
            value = res["quality"]["cloud_err_mm"]
        else:
            value = statistics.median(r[name] for r in plain) if plain else float("nan")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer_metrics(res: dict) -> dict:
    traced = [r for r in res["reps"] if r["traced"] and "layers" in r]
    plain = [r for r in res["reps"] if not r["traced"] and "run_s" in r]
    per_rep = [layer_metrics(r["layers"]) for r in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (statistics.median(r["run_s"] for r in traced)
                     - statistics.median(r["run_s"] for r in plain)
                     if traced and plain else float("nan"))
        else:
            value = statistics.median(v[name] for v in per_rep) if per_rep else float("nan")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(res: dict, trace: bool) -> None:
    reps = res["reps"]
    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    print(f"== {res['workload']} (seed {res['seed']}, {len(reps)} repetitions, "
          f"{len(plain)} untraced) ==")
    for name, unit in END_TO_END:
        if name == "cloud_err_mm":
            continue
        values = [r[name] for r in plain]
        if values:
            med, tail = timing_summary(values)
            print(f"  {name:<17} median {med:10.4f} {unit:<5} {tail}  n={len(values)}")
    q = res["quality"]
    print(f"  {'cloud_err_mm':<17} {q['cloud_err_mm']:17.4f} mm     n=1 (graded artifacts)")
    if q["surfaces_matched"] is not None:
        print(f"  {'surfaces_matched':<17} {q['surfaces_matched']:17d} count  n=1")
    ops = sum(r["ops"] for r in reps)
    ops_failed = sum(r["ops_failed"] for r in reps)
    plans_failed = sum(r["plans_failed"] for r in reps)
    print(f"  {'failed_frac':<17} {ops_failed / max(ops, 1):17.4f} ratio  "
          f"({ops_failed}/{ops} operations, {plans_failed} per-surface plans) n={len(reps)}")
    print(f"  repetitions failed: {res['failed_reps']}/{len(reps)}; "
          f"quality floor {'met' if res['grade_ok'] else 'MISSED'}")
    same = sum(r["same_bytes"] for r in reps)
    print(f"  artifacts identical in {same}/{len(reps)} repetitions "
          f"(traced and untraced):")
    for name, sha in res["reference"].items():
        print(f"    {sha}  {name}")
    for k, rep in enumerate(reps):
        if not rep["same_bytes"]:
            changed = sorted(set(rep["digests"].items()) ^ set(res["reference"].items()))
            print(f"    repetition {k} (rc {rep['rc']}) differs: {changed}")
        if not rep["ok"]:
            tail = rep["stderr"].strip().splitlines()[-3:]
            print(f"    repetition {k} failed (rc {rep['rc']}): {' | '.join(tail)}")
    if trace:
        print("  per-layer (median over traced repetitions; .s is self time):")
        for name, metric in per_layer_metrics(res).items():
            print(f"    {name:<48} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    if not (SRC / "scanplan" / "cli.py").is_file():
        print(f"bench: no scanplan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, build_input

    # Byte-compile up front so the first timed repetition does not pay it.
    compileall.compile_dir(SRC / "scanplan", quiet=1)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of: " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")

    results = []
    for name in names:
        wl = WORKLOADS[name]
        input_path = build_input(wl, args.seed, WORK / "inputs", SRC)
        res = measure(wl, args.seed, input_path, args.seconds, bool(args.trace))
        report(res, bool(args.trace))
        results.append(res)

    metrics = {}
    for res in results:
        found = per_layer_metrics(res) if args.trace else end_to_end_metrics(res)
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: v for k, v in found.items()})
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None   # no successful repetition; correct is false
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(len(r["reps"]) for r in results),
        "failed": sum(r["failed_reps"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
