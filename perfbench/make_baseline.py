#!/usr/bin/env python3
"""Writes perfbench/BASELINE.md: one traced run per workload, side by side.

    python3 perfbench/make_baseline.py [--seed 1] [--seconds 30]

Each column is the JSON result line of
`run.py --workload W --seed S --seconds T --trace 1`; a run that fails its
checks aborts the table.
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload}: traced run failed\n{proc.stdout}{proc.stderr}")
    return result["metrics"]


def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()

    columns = {w: traced_run(w, args.seed, args.seconds) for w in run.WORKLOADS}
    _, per_layer = run.load_contract()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    compiler = subprocess.run(["c++", "--version"], capture_output=True,
                              text=True).stdout.splitlines()[0]
    lines = [
        "# Traced-run per-layer baseline",
        "",
        f"One `--trace 1` run per workload, seed {args.seed}, "
        f"`--seconds {args.seconds}`, written by `perfbench/make_baseline.py` "
        f"at commit `{commit}`.",
        f"Host: {cpu_model()}, {len(__import__('os').sched_getaffinity(0))} "
        f"vCPUs; {compiler}; Release + LTO.",
        "0 in a column means the workload does not call that layer.",
        "",
        "| metric | unit | " + " | ".join(run.WORKLOADS) + " |",
        "|---|---|" + "---:|" * len(run.WORKLOADS),
    ]
    for m in per_layer:
        cells = [f"{columns[w][m['name']]['value']:.6g}" for w in run.WORKLOADS]
        lines.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells)
                     + " |")
    (HERE / "BASELINE.md").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
