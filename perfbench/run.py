"""Repo benchmark launcher: one command behind every performance claim.

    python3 perfbench/run.py --workload cycle_1m --seed 0 --seconds 20 --trace 0

Runs the workload as a sequence of *passes*, each in a fresh process
(``perfbench/workload.py``) driven by one closed-loop client: the next
pass starts only after the previous one has finished, until
``--seconds`` have elapsed and each algorithm has 100 round-time
samples (at least two passes).  Every pass times the
calls it makes into repro's public API from outside the package and
reports per-run digests of its outputs; the launcher checks each digest
against a reference computed untimed through ``engine="dense"`` and the
serial suite executor (pinned in ``pins.json`` for the default seed).

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` every second pass runs
with the layer calls wrapped in spans and the object carries the
per-layer metrics instead.  The line before it holds the run's detail:
context (versions, nproc, git sha, source fingerprint, seed), sample
counts, inputs digest and any failures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import COUNTS, SPAN_SELF, SPAN_TOTALS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("cycle_1m", "sweep_small", "fabric_churn")
DEFAULT_SEED = 0
MIN_PASSES = 2
# Round-time samples per percentile group (see grouped()).
GROUP = 100
# Whole-run budget: passes stop early rather than overrun it.
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "node_rounds_per_s": "1/s",
    "rotor_round_ms_p50": "ms",
    "rotor_round_ms_p90": "ms",
    "send_round_ms_p50": "ms",
    "send_round_ms_p90": "ms",
    "cache_replay_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: "s" for name in (*SPAN_TOTALS, *SPAN_SELF)},
    **{
        name: "bytes" if name.endswith("bytes_computed")
        or name.endswith("record_bytes") else "count"
        for name in COUNTS
    },
    "exec.cache_hit_ratio": "ratio",
    "exec.worker_busy_s": "s",
    "exec.worker_utilization": "ratio",
    "trace.phase_s": "s",
    "trace.self_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (p90 of 100 samples has 10 beyond it)."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def grouped(samples: list[float], q: float) -> float:
    """Median over consecutive groups of >= GROUP samples of each
    group's ``q``-percentile.

    Every group's p90 keeps at least ten samples beyond it, and a slow
    spell of the machine that covers less than half the groups does
    not move the result.
    """
    count = max(len(samples) // GROUP, 1)
    size = len(samples) / count
    return statistics.median(
        percentile(samples[round(i * size):round((i + 1) * size)], q)
        for i in range(count)
    )


def launch(mode: str, args, workdir: Path, deadline: float,
           traced: bool = False) -> dict:
    """Run one workload process; its last stdout line as a dict."""
    t_spawn = time.perf_counter()
    command = [
        sys.executable, str(HERE / "workload.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    if mode == "pass":
        command += ["--workdir", str(workdir), "--t-spawn", repr(t_spawn)]
        if traced:
            command.append("--traced")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} process killed at the time limit"}
    finally:
        # Reap anything the process left behind in its group
        # (e.g. suite workers of a crashed pass).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {
            "error": f"{mode} process exited {proc.returncode} "
            "without a result"
        }


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_passes(args, workdir: Path, deadline: float) -> list[dict]:
    """Closed loop: one pass after another until ``--seconds`` elapse.

    An untraced run also keeps going until every algorithm has GROUP
    round-time samples, so its p90 has ten samples beyond it.
    """
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while True:
        now = time.monotonic()
        samples = min(
            sum(len(p["round_ms"][name]) for p in passes if "error" not in p)
            for name in ("rotor", "send")
        )
        done = now - start >= args.seconds and (
            args.trace or samples >= GROUP
        )
        if len(passes) >= MIN_PASSES and (
            done
            # Leave room for one more pass and the reference.
            or now + 3 * longest > deadline
        ):
            return passes
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = launch("pass", args, workdir, deadline, traced)
        longest = max(longest, time.monotonic() - now)
        result["traced"] = traced
        passes.append(result)


def end_to_end(passes: list[dict]) -> dict[str, float]:
    def median(key):
        return statistics.median(p[key] for p in passes)

    rotor = [ms for p in passes for ms in p["round_ms"]["rotor"]]
    send = [ms for p in passes for ms in p["round_ms"]["send"]]
    return {
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "node_rounds_per_s": statistics.median(
            p["node_rounds"] / p["measured_s"] for p in passes
        ),
        "rotor_round_ms_p50": grouped(rotor, 0.5),
        "rotor_round_ms_p90": grouped(rotor, 0.9),
        "send_round_ms_p50": grouped(send, 0.5),
        "send_round_ms_p90": grouped(send, 0.9),
        "cache_replay_s": median("cache_replay_s"),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in untraced)
    return metrics


def check(passes: list[dict], reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems): every run or shard is one op."""
    expected = reference.get("reference")
    attempted = failed = 0
    problems = []
    if expected is None:
        problems.append(reference.get("error", "no reference"))
    for index, result in enumerate(passes):
        if "error" in result:
            count = len(expected) if expected else 1
            attempted += count
            failed += count
            problems.append(f"pass {index}: {result['error']}")
            continue
        for key, digest in result["ops"]:
            attempted += 1
            if expected is None or expected.get(key) != digest:
                failed += 1
                problems.append(f"pass {index}: digest mismatch on {key}")
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro benchmark launcher (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "toy"), default="full",
        help="toy shrinks every workload for the benchmark's own tests",
    )
    parser.add_argument(
        "--pins", type=Path, default=PINS,
        help="JSON file of pinned reference digests",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="compute the reference for this workload/size/seed, store "
        "it in the pins file and exit",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    pins = json.loads(args.pins.read_text()) if args.pins.exists() else {}
    pin_key = f"{args.workload}/{args.size}/{args.seed}"
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.pin:
            reference = launch("reference", args, workdir, deadline)
            if "reference" not in reference:
                print(reference.get("error"), file=sys.stderr)
                return 1
            pins[pin_key] = reference["reference"]
            args.pins.write_text(json.dumps(pins, indent=1, sort_keys=True))
            print(json.dumps({pin_key: pins[pin_key]}))
            return 0
        passes = run_passes(args, workdir, deadline)
        if pin_key in pins:
            reference = {"reference": pins[pin_key]}
        else:
            reference = launch("reference", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed, problems = check(passes, reference)
    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if args.trace:
        names = PER_LAYER
        values = per_layer(traced, untraced) if traced and untraced else {}
    else:
        names = END_TO_END
        values = end_to_end(untraced) if untraced else {}
    baseline = untraced[0]["ops"] if untraced else None
    inputs = good[0]["inputs"] if good else None
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced),
        "samples": {
            "rotor": sum(len(p["round_ms"]["rotor"]) for p in untraced),
            "send": sum(len(p["round_ms"]["send"]) for p in untraced),
        },
        "per_pass": [
            {
                "traced": p["traced"],
                "setup_s": p["setup_s"],
                "wall_s": p["wall_s"],
                "rotor_ms_p50": statistics.median(p["round_ms"]["rotor"]),
                "send_ms_p50": statistics.median(p["round_ms"]["send"]),
            }
            for p in good
        ],
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "traced_digests_match": (
            all(p["ops"] == baseline for p in traced)
            if traced and baseline is not None else None
        ),
        "inputs": inputs,
        "inputs_digest": hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "reference": "pinned" if pin_key in pins else "computed",
        "context": {
            **(good[0]["context"] if good else {}),
            "git_sha": git_sha(),
            "seed": args.seed,
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and bool(values),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
