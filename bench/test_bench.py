"""Tests of the benchmark itself: input generation, report checks, the
tracer, and each workload end to end at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, check_report, herald_probability  # noqa: E402

TINY = {"herald-sampled": 3000, "memory-lossy": 2000, "multipair-exact": 3}


def _runner(name: str, tmp_path: Path, seed: int = 7) -> run.Runner:
    w = WORKLOADS[name]
    expected = herald_probability(w) if w.mode == "sampled" else None
    return run.Runner(Inputs(w, seed, tmp_path), expected, tmp_path)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    produced = set(tracer.SPAN_METRICS) | set(tracer.DERIVED_METRICS) | {"protocols.heralds", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [m["name"] for m in spec["end_to_end"]] == ["throughput_per_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("seed", range(40))
def test_generated_configs_stay_in_range(seed, tmp_path):
    from stokesim import cli

    for w in WORKLOADS.values():
        inputs = Inputs(w, seed, tmp_path)
        for size in (1, w.trace_size, w.size):
            points = inputs.points(size)
            if w.mode == "exact":
                assert len(points) == size and points == sorted(set(points))
                assert 0.0 <= points[0] and points[-1] <= 0.2
            # the program's own validation accepts every generated config
            sections = cli.parse_config(inputs.config(size).read_text(encoding="utf-8"))
            command = inputs.argv(size, tmp_path / "report.json")[0]
            exp = cli.build_experiment(sections, command, {"seed": 1})
            for value in exp.sweep_values:
                cli.apply_sweep_value(exp.config, exp.sweep_parameter, value)


def test_same_seed_same_inputs(tmp_path):
    for w in WORKLOADS.values():
        a, b = Inputs(w, 3, tmp_path / "a"), Inputs(w, 3, tmp_path / "b")
        assert a.grid == b.grid and a.next_seed() == b.next_seed()
        assert Inputs(w, 4, tmp_path).next_seed() != Inputs(w, 3, tmp_path).next_seed()


def test_checks_reject_wrong_physics(tmp_path):
    sampled = Inputs(WORKLOADS["herald-sampled"], 1, tmp_path)
    summary = {"trials": 10_000, "success_count": 300, "psi_minus_count": 150, "psi_plus_count": 150,
               "mean_heralded_fidelity": 0.99}
    report = {"mode": "sampled", "summary": summary}
    p = herald_probability(sampled.workload)
    assert check_report(sampled, 10_000, report, p)  # 300 heralds is ~36 sigma above 10^4 * p
    summary.update(success_count=50, psi_minus_count=25, psi_plus_count=25)
    assert not check_report(sampled, 10_000, report, p)
    summary.update(psi_plus_count=24)
    assert check_report(sampled, 10_000, report, p)

    multi = Inputs(WORKLOADS["multipair-exact"], 1, tmp_path)
    p0s = multi.points(3)
    rows = [{"p0": p, "success_probability": p / 2, "heralded_fidelity": 1 - 0.75 * p} for p in p0s]
    assert not check_report(multi, 3, {"mode": "exact", "rows": rows}, None)
    rows[2]["heralded_fidelity"] = rows[1]["heralded_fidelity"]  # deficit stops rising
    assert check_report(multi, 3, {"mode": "exact", "rows": rows}, None)
    rows[2]["heralded_fidelity"] = 1 - 1.5 * p0s[2]  # deficit above p0
    assert check_report(multi, 3, {"mode": "exact", "rows": rows}, None)


def test_recorder_self_time_excludes_children():
    rec = tracer.Recorder()

    def inner(x):
        sum(range(20_000))
        return x

    inner_t = rec.span("inner", inner)

    def outer():
        sum(range(20_000))
        return inner_t(1) + inner_t(2)

    assert rec.span("outer", outer)() == 3
    calls, incl, self_ns = rec.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert self_ns["inner"] == incl["inner"]
    assert self_ns["outer"] == incl["outer"] - incl["inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_runs_and_passes_its_checks(name, tmp_path):
    runner = _runner(name, tmp_path)
    report, wall, rss = runner.cli(TINY[name])
    assert report is not None and runner.failed == 0
    assert wall > 0 and rss > 0


def test_jobs2_report_matches_serial_byte_for_byte(tmp_path):
    w = WORKLOADS["memory-lossy"]
    blobs = []
    for jobs in (1, 2):
        inputs = Inputs(w, 11, tmp_path)  # same run seed, so the same CLI seed
        out = tmp_path / f"jobs{jobs}.json"
        cmd = [sys.executable, "-c", run.CLI_ENTRY, *inputs.argv(5000, out, jobs)]
        subprocess.run(cmd, check=True, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, timeout=120)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_traced_command_wraps_name_imports_and_the_pool(tmp_path):
    runner = _runner("memory-lossy", tmp_path)
    report, serial = runner.traced(2000, trace=True)
    assert report is not None
    layers = serial["layers"]
    # protocols imports trial_rng by name: its calls are seen only if that
    # binding was wrapped too
    assert layers["rng.trial_rng.calls"] == 2000
    assert layers["detection.sample.calls"] == 2000
    assert layers["protocols.fidelity_evals"] == report["summary"]["success_count"]
    assert layers["protocols.trial_loop.us"] > 0
    assert layers["cli.report_bytes"] > 0
    report, pooled = runner.traced(2000, trace=True, jobs=2)
    assert report is not None
    assert pooled["layers"]["cli.pool.result_bytes"] > 0
    assert pooled["layers"]["cli.pool.ms"] > 0
    _, plain = runner.traced(2000, trace=False)
    assert plain["wall_s"] > 0 and "layers" not in plain
    assert runner.failed == 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_result(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "multipair-exact", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace:
        # the verdict itself may change when a later change moves the profile
        assert "seed profile: largest self time is" in proc.stdout
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "speed probe" in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "herald-sampled", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
