"""stokesim benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Runs the `stokesim` CLI from this checkout's `src/` as a user would: one
fresh process per command, a closed loop with one client (the next
command starts when the previous one has exited), and never more worker
processes than cores.  Every report is checked (see `workloads.py`); a
nonzero exit or a failed check counts as a failed command.

`--trace 0` runs the speed probe (`PROBE`, a fixed program that does not
run stokesim), then repeats a cycle for `--seconds`: the workload's
command at 1 trial or 1 point, the command at full size, and the probe
again.  It reports the end-to-end metrics:
  throughput_per_s  trials (sampled) or sweep points (exact) per second of
                    the full-size command's whole wall time, median over
                    the run, at reference machine speed;
  setup_s           wall time of the 1-trial or 1-point command, median
                    over the run, at reference machine speed;
  peak_rss_mb       largest resident set of the CLI process or its workers,
                    median over the full-size commands.
"At reference machine speed" scales each cycle's figures by the geometric
mean of the two probe times around it over PROBE_NOMINAL_S.  On a shared
host the speed of the same code swings by tens of percent within seconds
and drifts over minutes, and the probe swings with it, so the scaled
figures are steadier from run to run; the unscaled medians are printed
too.  The probe runs no stokesim code, so a slower program still reads
slower.
`--trace 1` runs the same command in-process under `tracer.py`, alternating
untraced and traced commands, and reports the per-layer metrics.

The last line of standard output is the result object; the lines before
it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "stokesim"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, Inputs, check_report, herald_probability  # noqa: E402

#: the console-script entry point, run from source
CLI_ENTRY = "import sys; from stokesim.cli import main; sys.exit(main())"
#: the speed probe: interpreter start and numpy import, then about as
#: long again of per-key Philox generators and dict updates, the kinds of
#: work the CLI does.  Start-up alone swings more than the CLI's longer
#: commands do, hence the computation.  It must never import stokesim, or
#: a change to the program would scale itself away.
PROBE = (
    "import numpy as np\n"
    "out = []\n"
    "for i in range(1500):\n"
    "    g = np.random.Generator(np.random.Philox(key=(7, i)))\n"
    "    out.append((g.random(), [g.random() for _ in range(4)]))\n"
    "d = {}\n"
    "for i in range(150000):\n"
    "    k = (i % 997, i % 13)\n"
    "    d[k] = d.get(k, 0j) + complex(i, 1)\n"
)
#: the probe's median wall time on the machine in bench/README.md; the
#: end-to-end times are scaled to a machine on which the probe takes this
PROBE_NOMINAL_S = 0.4
#: a single command that runs longer than this is killed and counted failed
COMMAND_TIMEOUT_S = 60.0
#: no command starts, and a running one is killed, this long after the run
#: began, so a hung program cannot keep the run past its 180 s limit
RUN_BUDGET_S = 150.0

#: the layer that held the largest self-time share when this benchmark was
#: defined (see bench/README.md); the traced run reports whether it still does
SEED_PROFILE = {"herald-sampled": "rng.trial_rng", "multipair-exact": "fock.project"}
#: workers of the traced pool command; never more than there are cores
POOL_JOBS = min(2, os.cpu_count() or 1)


def machine_info() -> dict:
    load = os.getloadavg()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": [round(x, 2) for x in load],
    }


class Runner:
    """Runs CLI commands for one workload and checks every report."""

    def __init__(self, inputs: Inputs, expected_p: float | None, workdir: Path):
        self.inputs = inputs
        self.expected_p = expected_p
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "STOKESIM_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.budget_end = time.perf_counter() + RUN_BUDGET_S

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.budget_end

    def _spawn(self, cmd: list[str]) -> tuple[int, float, float, str]:
        """Run `cmd` to completion: (exit code, wall s, peak RSS MB of the
        process and the children it waited for, stderr tail)."""
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, cwd=ROOT, start_new_session=True,
            )
            timeout = max(0.1, min(COMMAND_TIMEOUT_S, self.budget_end - start))
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, tail

    def _verdict(self, rc: int, size: int, out: Path, tail: str) -> dict | None:
        """The parsed report when the command succeeded and its report
        passes the workload's checks, else None (counted as failed)."""
        self.attempted += 1
        problems = [f"exit code {rc}: {tail.strip()[-500:]}"] if rc != 0 else []
        report = None
        if not problems:
            try:
                report = json.loads(out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems = [f"unreadable report: {exc}"]
            else:
                problems = check_report(self.inputs, size, report, self.expected_p)
        if problems:
            self.failed += 1
            print(f"FAILED ({size} {self.inputs.workload.unit}): " + "; ".join(problems[:5]), flush=True)
            return None
        return report

    def probe(self) -> float:
        """Wall time of one run of the speed probe."""
        rc, wall, _, tail = self._spawn([sys.executable, "-c", PROBE])
        if rc != 0:
            raise RuntimeError(f"the speed probe failed with exit code {rc}: {tail.strip()[-500:]}")
        return wall

    def cli(self, size: int) -> tuple[dict | None, float, float]:
        """One CLI command at `size`: (checked report or None, wall s, RSS MB)."""
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-c", CLI_ENTRY, *self.inputs.argv(size, out)]
        rc, wall, rss, tail = self._spawn(cmd)
        return self._verdict(rc, size, out, tail), wall, rss

    def traced(self, size: int, trace: bool, jobs: int = 1) -> tuple[dict | None, dict]:
        """One CLI command run in-process by tracer.py: (checked report or
        None, tracer result with in-process wall time and layer metrics)."""
        out = self.workdir / "report.json"
        result_path = self.workdir / "trace.json"
        spans_path = WORK.parent / "trace" / f"{self.inputs.workload.name}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        for p in (out, result_path):
            p.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(BENCH / "tracer.py"), str(result_path), str(spans_path),
            "1" if trace else "0", "--", *self.inputs.argv(size, out, jobs),
        ]
        rc, _, _, tail = self._spawn(cmd)
        report = self._verdict(rc, size, out, tail)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {}
        return report, result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_run(runner: Runner, seconds: float) -> dict:
    w = runner.inputs.workload
    runner.cli(1)  # warm-up, untimed: the first start reads files from disk
    deadline = time.perf_counter() + seconds
    probe = [runner.probe()]
    # (speed, unscaled value) per passing command; a cycle's speed is the
    # geometric mean of the probes on either side of its two commands
    setup, throughput, rss = [], [], []
    cycle = 0.0
    # a cycle starts only if one as long as the last still ends in time,
    # so a run lasts about `seconds` whatever the command costs
    while (len(probe) == 1 or time.perf_counter() + cycle <= deadline) and not runner.out_of_time():
        began = time.perf_counter()
        setup_report, setup_wall, _ = runner.cli(1)
        report, wall, peak = runner.cli(w.size)
        probe.append(runner.probe())
        speed = math.sqrt(probe[-2] * probe[-1]) / PROBE_NOMINAL_S
        if setup_report is not None:
            setup.append((1.0 / speed, setup_wall))
        if report is not None:
            throughput.append((speed, w.size / wall))
            rss.append((1.0, peak))
        cycle = time.perf_counter() - began
    print(f"speed probe        {statistics.median(probe):14.6g} s    (median of {len(probe)}; "
          f"each cycle is scaled to a {PROBE_NOMINAL_S:g} s probe)")
    metrics = {}
    for name, unit, pairs in (
        ("throughput_per_s", "1/s", throughput),
        ("setup_s", "s", setup),
        ("peak_rss_mb", "MB", rss),
    ):
        pairs = pairs or [(1.0, 0.0)]
        value = statistics.median(scale * v for scale, v in pairs)
        q1, med, q3 = _quartiles([v for _, v in pairs])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:18s} {value:14.6g} {unit:4s} (median of {len(pairs)}; "
              f"unscaled median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g})")
    named = "trials_per_s" if w.mode == "sampled" else "points_per_s"
    print(f"{named:18s} {metrics['throughput_per_s']['value']:14.6g} 1/s  ({w.size} {w.unit} per command)")
    return metrics


def traced_run(runner: Runner, seconds: float, per_layer: list[dict]) -> dict:
    w = runner.inputs.workload
    untraced, traced, layers, pool_layers, top = [], [], [], [], []
    heralds = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while (rounds == 0 or time.perf_counter() < deadline) and not runner.out_of_time():
        rounds += 1
        _, plain = runner.traced(w.trace_size, trace=False)
        report, result = runner.traced(w.trace_size, trace=True)
        if "wall_s" in plain and "layers" in result:
            untraced.append(plain["wall_s"])
            traced.append(result["wall_s"])
        if "layers" in result:
            layers.append(result["layers"])
            top = result["self_top"]
        if report is not None and w.mode == "sampled":
            heralds.append(report["summary"]["success_count"])
        if w.trace_pool:
            # spans recorded in pool workers stay there, so the pool's own
            # metrics come from a --jobs command of the same config
            _, pooled = runner.traced(w.trace_size, trace=True, jobs=POOL_JOBS)
            if "layers" in pooled:
                pool_layers.append(pooled["layers"])

    values = {m["name"]: 0.0 for m in per_layer}
    for name in values:
        source = pool_layers if name.startswith("cli.pool.") else layers
        if source and name in source[0]:
            values[name] = statistics.fmean(row[name] for row in source)
    values["protocols.heralds"] = statistics.fmean(heralds) if heralds else 0.0
    if untraced and traced:
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    print(f"traced commands: {len(traced)} of {w.trace_size} {w.unit} each; per-layer values are per command")
    if w.trace_pool:
        print(f"cli.pool.* come from a --jobs {POOL_JOBS} command; all other layers from the serial traced command")
    print("largest self times (share of the traced command):")
    for name, ms, share in top:
        print(f"  {name:40s} {ms:10.2f} ms {share:7.1%}")
    expected = SEED_PROFILE.get(w.name)
    if expected and top:
        verdict = "agrees with" if top[0][0] == expected else "differs from"
        print(f"seed profile: largest self time is {top[0][0]}, which {verdict} the seed profile ({expected})")
    units = {m["name"]: m["unit"] for m in per_layer}
    for name, value in values.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stokesim" / "cli.py").is_file():
        sys.stderr.write(f"no stokesim sources under {SRC}; run from a checkout of the repository\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_info()), flush=True)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs = Inputs(workload, args.seed, Path(tmp))
        expected_p = herald_probability(workload) if workload.mode == "sampled" else None
        if expected_p is not None:
            print(f"expected herald probability {expected_p:.9g}")
        runner = Runner(inputs, expected_p, Path(tmp))
        if args.trace:
            metrics = traced_run(runner, args.seconds, spec["per_layer"])
        else:
            metrics = timed_run(runner, args.seconds)
    print(f"failed_frac        {runner.failed / max(runner.attempted, 1):14.6g}      "
          f"({runner.failed} of {runner.attempted} commands)")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
