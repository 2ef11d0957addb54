"""Process and file hygiene of the benchmark on every exit path.

Runs the real benchmark (it builds on first use), so it takes a minute:

    python3 -m unittest discover -s perfbench/tests -p 'test_hygiene.py'

Run it while no other benchmark is running in this checkout: it counts
every process started from the benchmark's build directory.
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402


def bench(*args, **kwargs):
    return subprocess.Popen([sys.executable, str(run.HERE / "run.py")]
                            + list(args), cwd=run.ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            **kwargs)


def stray_processes():
    """Live processes whose executable lives in the benchmark build."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
        except OSError:
            continue
        if exe.startswith(str(run.BUILD)):
            found.append((int(pid), exe))
    return found


def run_files_left():
    return run.RUNS.exists() and any(run.RUNS.iterdir())


class Hygiene(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_clean(self):
        deadline = time.monotonic() + 5.0
        while stray_processes() and time.monotonic() < deadline:
            time.sleep(0.1)
        self.assertEqual(stray_processes(), [])
        self.assertFalse(run_files_left(), "per-run files left behind")

    def test_back_to_back_serve_runs_leave_nothing(self):
        # Two seconds are too few samples for the p99s, so both runs take
        # the failure exit; the tier must be reaped and the stores removed
        # all the same, and the second run must start from nothing.
        self.assert_clean()
        for seed in (21, 22):
            proc = bench("--workload", "serve-mixed", "--seed", str(seed),
                         "--seconds", "2", "--trace", "0")
            out, err = proc.communicate(timeout=170)
            last = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(proc.returncode, 0 if last["correct"] else 1, err)
            self.assert_clean()

    def test_terminated_run_reaps_its_tier(self):
        proc = bench("--workload", "serve-mixed", "--seed", "23",
                     "--seconds", "20", "--trace", "0")
        deadline = time.monotonic() + 60.0
        while not any("respin_serve" in exe for _, exe in stray_processes()):
            self.assertLess(time.monotonic(), deadline, "tier never started")
            self.assertIsNone(proc.poll())
            time.sleep(0.05)
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', out)
        self.assert_clean()

    def test_fails_fast_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT,
                                         prefix=".bench_test") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sim-shared-cc", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, text=True, capture_output=True,
                timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
            self.assertEqual(sorted(os.listdir(tmp)),
                             ["BENCHMARK.json", "perfbench"])


if __name__ == "__main__":
    unittest.main()
