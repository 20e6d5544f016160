"""CLI and report-format tests.

Golden files under data/ pin the exact report bytes of exact and sampled
event-ready and memory runs and of two exact sweeps; regenerate them
deliberately if the schema changes.
"""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from stokesim import cli, detection
from stokesim.detection import DetectorSpec
from stokesim.errors import ConfigError, ValidationError
from stokesim.protocols import ProtocolConfig
from stokesim.sources import SourceParams

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"
README = pathlib.Path(__file__).parent.parent / "README.md"

FULL_INI = """
[run]
protocol = memory
mode = sampled
trials = 500
seed = 42
format = json

[source]
p0 = 0.02
alpha = 0.6
beta = 0.8j
t = 0.5
emission_order = 2
cutoff = 8
epr_enabled = false

[detector]
eta = 0.9
dark_prob = 0.0001

[memory]
theta = 0.7
phi = 1.9
retrieval_efficiency = 0.8
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_full_config():
    sections = cli.parse_config(FULL_INI)
    assert sections["run"]["trials"] == 500
    assert sections["source"]["p0"] == 0.02
    assert sections["detector"]["eta"] == 0.9
    assert sections["memory"]["phi"] == 1.9


def test_parse_rejects_unknown_section_with_line():
    with pytest.raises(ConfigError, match=r"unknown section \[sources\] \(line 1\)"):
        cli.parse_config("[sources]\np0 = 0.01\n")


def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError, match=r"unknown key 'pump' in \[source\] \(line 2\)"):
        cli.parse_config("[source]\npump = 0.01\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="expected float"):
        cli.parse_config("[source]\np0 = strong\n")
    with pytest.raises(ConfigError, match="expected bool"):
        cli.parse_config("[source]\nepr_enabled = maybe\n")
    with pytest.raises(ConfigError, match="syntax error"):
        cli.parse_config("p0 = 0.01\n")


def test_parse_bool_and_complex_forms():
    assert cli.parse_config("[source]\nepr_enabled = off\n")["source"]["epr_enabled"] is False
    assert cli.parse_config("[source]\nepr_enabled = YES\n")["source"]["epr_enabled"] is True
    alpha = cli.parse_config("[source]\nalpha = 0.6+0.0j\n")["source"]["alpha"]
    assert alpha == 0.6 + 0.0j


def test_parse_sweep_values():
    assert cli._parse_values("1, 2 3,4") == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ConfigError):
        cli._parse_values("  ")
    with pytest.raises(ConfigError):
        cli._parse_values("1, two")


# ---------------------------------------------------------------------------
# experiment assembly


def test_build_defaults_without_config():
    exp = cli.build_experiment({}, "generate", {})
    assert exp.protocol == "generate"
    assert exp.config.mode == "exact"
    assert exp.config.seed == 0
    assert exp.format == "json"
    assert exp.config == ProtocolConfig()


def test_build_wires_all_sections():
    exp = cli.build_experiment(cli.parse_config(FULL_INI), "memory", {})
    assert exp.config == ProtocolConfig(
        source=SourceParams(p0=0.02, emission_order=2, alpha=0.6, beta=0.8j, t=0.5),
        detector=DetectorSpec(efficiency=0.9, dark_prob=0.0001),
        trials=500,
        mode="sampled",
        seed=42,
        theta=0.7,
        phi=1.9,
        epr_enabled=False,
        retrieval_efficiency=0.8,
        cutoff=8,
    )
    assert (exp.protocol, exp.format, exp.out, exp.jobs) == ("memory", "json", None, 1)


def test_build_rejects_protocol_mismatch():
    with pytest.raises(ConfigError, match="subcommand"):
        cli.build_experiment(cli.parse_config(FULL_INI), "event-ready", {})


def test_sampled_mode_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        cli.build_experiment({}, "memory", {"mode": "sampled"})


def test_seed_precedence(monkeypatch):
    sections = {"run": {"seed": 1, "mode": "sampled"}}
    assert cli.build_experiment(sections, "memory", {}).config.seed == 1
    monkeypatch.setenv("STOKESIM_SEED", "2")
    assert cli.build_experiment(sections, "memory", {}).config.seed == 2
    assert cli.build_experiment(sections, "memory", {"seed": 3}).config.seed == 3
    monkeypatch.setenv("STOKESIM_SEED", "nope")
    with pytest.raises(ConfigError, match="STOKESIM_SEED"):
        cli.build_experiment(sections, "memory", {})


def test_build_validates_physics_ranges():
    with pytest.raises(ConfigError, match="p0"):
        cli.build_experiment({"source": {"p0": 0.9}}, "generate", {})
    with pytest.raises(ConfigError, match="format"):
        cli.build_experiment({}, "generate", {"format": "yaml"})


def test_sweep_needs_parameter_and_values():
    with pytest.raises(ConfigError, match="sweep needs"):
        cli.build_experiment({"sweep": {"parameter": "p0"}}, "sweep", {})
    with pytest.raises(ConfigError, match="must be one of"):
        cli.build_experiment(
            {"sweep": {"parameter": "voltage", "values": "1 2"}}, "sweep", {}
        )
    exp = cli.build_experiment(
        {"sweep": {"parameter": "p0", "values": "0.01 0.02"}}, "sweep", {}
    )
    assert exp.protocol == "event-ready"  # sweep default
    assert exp.sweep_values == (0.01, 0.02)


def test_apply_sweep_value_each_parameter():
    base = cli.build_experiment({}, "memory", {}).config
    assert cli.apply_sweep_value(base, "p0", 0.05).source.p0 == 0.05
    assert cli.apply_sweep_value(base, "t", 0.5).source.t == 0.5
    assert cli.apply_sweep_value(base, "emission_order", 2.0).source.emission_order == 2
    assert cli.apply_sweep_value(base, "eta", 0.7).detector.efficiency == 0.7
    assert cli.apply_sweep_value(base, "dark_prob", 1e-3).detector.dark_prob == 1e-3
    assert cli.apply_sweep_value(base, "theta", 0.3).theta == 0.3
    assert cli.apply_sweep_value(base, "phi", 0.4).phi == 0.4
    with pytest.raises(ConfigError, match="not an integer"):
        cli.apply_sweep_value(base, "emission_order", 1.5)


# ---------------------------------------------------------------------------
# serialization


def test_format_float_17_digits():
    assert cli.format_float(0.1) == "0.10000000000000001"
    assert cli.format_float(1.0) == "1"
    assert cli.format_float(0.0049504950495049549) == "0.0049504950495049549"
    with pytest.raises(ValidationError):
        cli.format_float(float("nan"))
    with pytest.raises(ValidationError):
        cli.format_float(float("inf"))


def test_to_json_layout_frozen():
    report = {
        "n": 3,
        "x": 0.5,
        "flag": True,
        "nothing": None,
        "amp": 0.5 + 0.5j,
        "seq": [1, 2],
        "empty": [],
        "inner": {"a": 1},
    }
    expected = (
        "{\n"
        '  "n": 3,\n'
        '  "x": 0.5,\n'
        '  "flag": true,\n'
        '  "nothing": null,\n'
        '  "amp": "0.5+0.5j",\n'
        '  "seq": [\n    1,\n    2\n  ],\n'
        '  "empty": [],\n'
        '  "inner": {\n    "a": 1\n  }\n'
        "}\n"
    )
    assert cli.to_json(report) == expected
    assert json.loads(cli.to_json(report))["amp"] == "0.5+0.5j"


def test_to_csv_union_columns_and_cells():
    rows = [
        {"a": 1, "b": [0.5, 0.25]},
        {"a": None, "c": True},
    ]
    assert cli.to_csv(rows) == "a,b,c\n1,0.5;0.25,\n,,true\n"


def test_config_echo_key_order_frozen():
    exp = cli.build_experiment({}, "generate", {})
    assert list(cli.config_echo(exp)) == [
        "protocol",
        "mode",
        "trials",
        "p0",
        "alpha",
        "beta",
        "t",
        "emission_order",
        "cutoff",
        "epr_enabled",
        "eta",
        "dark_prob",
        "theta",
        "phi",
        "retrieval_efficiency",
    ]


# ---------------------------------------------------------------------------
# end-to-end runs


def write_ini(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_main_generate_stdout(capsys):
    assert cli.main(["generate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["protocol"] == "generate"
    assert math.isclose(report["summary"]["purity"], 0.980394079011861, abs_tol=1e-12)


def test_main_matches_golden_event_ready(tmp_path):
    ini = write_ini(tmp_path, "[run]\nprotocol = event-ready\nmode = exact\n\n[source]\np0 = 0.01\n")
    out = tmp_path / "report.json"
    assert cli.main(["event-ready", "--config", ini, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_event_ready.json").read_bytes()


def test_main_matches_golden_sweep_csv(tmp_path):
    ini = write_ini(
        tmp_path,
        "[run]\nprotocol = event-ready\nmode = exact\nformat = csv\n\n"
        "[sweep]\nparameter = p0\nvalues = 0.005, 0.01, 0.02\n",
    )
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", ini, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_sweep_p0.csv").read_bytes()


GOLDEN_RUNS = {
    "golden_memory_exact.json": (
        "memory",
        "[run]\nprotocol = memory\nmode = exact\n\n"
        "[memory]\ntheta = 0.7\nphi = 1.9\nretrieval_efficiency = 0.9\n",
    ),
    "golden_event_ready_sampled.json": (
        "event-ready",
        "[run]\nprotocol = event-ready\nmode = sampled\ntrials = 2000\nseed = 2024\n\n"
        "[source]\np0 = 0.05\n",
    ),
    "golden_event_ready_lossy.json": (
        "event-ready",
        "[run]\nprotocol = event-ready\nmode = sampled\ntrials = 5000\nseed = 18446744073709551615\n\n"
        "[source]\nemission_order = 2\n\n"
        "[detector]\neta = 0.5\ndark_prob = 1e-2\n",
    ),
    "golden_memory_sampled.json": (
        "memory",
        "[run]\nprotocol = memory\nmode = sampled\ntrials = 2000\nseed = 77\n\n"
        "[detector]\neta = 0.8\ndark_prob = 1e-3\n\n"
        "[memory]\ntheta = 0.7\nphi = 1.9\n",
    ),
    "golden_sweep_multipair.json": (
        "sweep",
        "[run]\nprotocol = event-ready\nmode = exact\n\n"
        "[source]\nemission_order = 5\ncutoff = 12\n\n"
        "[detector]\neta = 1.0\ndark_prob = 0.0\n\n"
        "[sweep]\nparameter = p0\nvalues = 0.01, 0.08, 0.2\n",
    ),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_main_matches_golden_protocol_runs(tmp_path, golden):
    command, text = GOLDEN_RUNS[golden]
    out = tmp_path / golden
    assert cli.main([command, "--config", write_ini(tmp_path, text), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_main_sampled_serial_equals_parallel(tmp_path):
    ini = write_ini(
        tmp_path,
        "[run]\nmode = sampled\ntrials = 400\nseed = 5\n\n[memory]\ntheta = 0.7\nphi = 1.9\n",
    )
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert cli.main(["memory", "--config", ini, "--out", str(serial)]) == 0
    assert cli.main(["memory", "--config", ini, "--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    report = json.loads(serial.read_text())
    assert report["summary"]["trials"] == 400


def test_main_validate_echo(tmp_path, capsys):
    ini = write_ini(tmp_path, FULL_INI)
    assert cli.main(["validate", "--config", ini]) == 0
    out = capsys.readouterr().out
    assert out.startswith("config ok\n")
    assert "protocol = memory\n" in out
    # floats echo with the same 17-digit formatting as the reports
    assert "theta = 0.69999999999999996\n" in out


def test_main_validate_rejects_bad_config(tmp_path, capsys):
    ini = write_ini(tmp_path, "[source]\np0 = 0.9\n")
    assert cli.main(["validate", "--config", ini]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("sweep", "[sweep]\nparameter = p0\nvalues = 0.01, 0.5\n"),
        ("event-ready", "[source]\ncutoff = 1\n"),
        ("event-ready", "[source]\nemission_order = 4\n"),
        ("event-ready", "[source]\nalpha = nan\n"),
        ("event-ready", "[source]\nalpha = nan\nt = 0.5\n"),
        ("sweep", "[sweep]\nparameter = emission_order\nvalues = 1, nan\n"),
        ("sweep", "[sweep]\nparameter = emission_order\nvalues = 1, inf\n"),
        ("memory", "[run]\nprotocol = memory\n\n[source]\ncutoff = 2\n"),
    ],
    ids=[
        "sweep-p0-out-of-range",
        "cutoff-1",
        "order-4-default-cutoff",
        "alpha-nan",
        "alpha-nan-with-t",
        "sweep-order-nan",
        "sweep-order-inf",
        "memory-cutoff-2",
    ],
)
def test_configs_failing_at_run_time_are_rejected_up_front(tmp_path, capsys, command, text):
    ini = write_ini(tmp_path, text)
    assert cli.main(["validate", "--config", ini]) == 2
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.count("config error") == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "cutoff, warned, probability",
    [
        (6, "cutoff 6 cuts the EPR ancilla at emission_order 3; cutoff >= 8 keeps it whole", "0.0049872534217756115"),
        (8, None, "0.0049874365827109034"),
    ],
)
def test_ancilla_cut_is_reported_on_stderr(tmp_path, capsys, cutoff, warned, probability):
    ini = write_ini(tmp_path, f"[run]\nprotocol = event-ready\n\n[source]\nemission_order = 3\ncutoff = {cutoff}\n")
    out = tmp_path / "r.json"
    assert cli.main(["validate", "--config", ini]) == 0
    assert cli.main(["event-ready", "--config", ini, "--out", str(out)]) == 0
    expected = f"warning: {warned}\n" * 2 if warned else ""
    assert capsys.readouterr().err == expected
    # the report is unchanged: the cut shows only as truncation loss
    assert f'"success_probability": {probability},' in out.read_text()


def test_ancilla_cut_names_the_largest_swept_emission_order(tmp_path, capsys):
    ini = write_ini(tmp_path, "[source]\ncutoff = 6\n\n[sweep]\nparameter = emission_order\nvalues = 1, 3, 2\n")
    assert cli.main(["validate", "--config", ini]) == 0
    assert capsys.readouterr().err == "warning: cutoff 6 cuts the EPR ancilla at emission_order 3; cutoff >= 8 keeps it whole\n"


def _binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@pytest.mark.parametrize(
    "command, text, concurrences, entropies",
    [
        ("generate", "[source]\nalpha = 0.6\nbeta = 0.8\n", [2 * 0.6 * 0.8], [_binary_entropy(0.36)]),
        ("sweep", "[run]\nprotocol = generate\n\n[sweep]\nparameter = t\nvalues = 1, 0.5\n",
         [1.0, 2 * math.sqrt(0.5) / 1.5], [1.0, _binary_entropy(1 / 3)]),
    ],
    ids=["alpha-below-beta", "sweep-t"],
)
def test_generate_with_an_active_attenuator(tmp_path, command, text, concurrences, entropies):
    # conditioned on the photon surviving the attenuator, the excited
    # branch is alpha |S1 H> + beta |S2 V>, of concurrence 2|alpha beta|
    # and entanglement entropy h(|alpha|^2)
    out = tmp_path / "r.json"
    assert cli.main([command, "--config", write_ini(tmp_path, text), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = report["rows"] if command == "sweep" else [report["summary"]]
    got = [row["excited_branch_concurrence"] for row in rows]
    np.testing.assert_allclose(got, concurrences, rtol=0, atol=1e-12)
    got = [row["excited_branch_entropy"] for row in rows]
    np.testing.assert_allclose(got, entropies, rtol=0, atol=1e-12)


def test_readme_config_validates(tmp_path, capsys):
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    assert cli.main(["validate", "--config", write_ini(tmp_path, block)]) == 0
    assert capsys.readouterr().out.startswith("config ok\n")


def test_python_m_stokesim_runs_the_cli(tmp_path):
    ini = write_ini(tmp_path, "[run]\nprotocol = memory\n\n[memory]\ntheta = 0.7\n")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "stokesim", "validate", "--config", ini],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("config ok\nprotocol = memory\n")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_main_rejects_jobs_below_one(capsys, jobs):
    assert cli.main(["memory", "--jobs", jobs]) == 2
    assert "jobs" in capsys.readouterr().err


def test_pool_workers_capped_at_cpu_count(tmp_path, monkeypatch):
    opened = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    args = ["memory", "--mode", "sampled", "--seed", "4", "--trials", "100"]
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert opened == []
    assert cli.main(args + ["--out", str(pooled), "--jobs", "1000000"]) == 0
    assert opened == [os.cpu_count()]
    assert serial.read_bytes() == pooled.read_bytes()


def test_main_missing_config_file(capsys):
    assert cli.main(["generate", "--config", "/nonexistent/cfg.ini"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_unwritable_output(capsys):
    assert cli.main(["generate", "--out", "/nonexistent-dir/report.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_main_csv_single_run(capsys):
    assert cli.main(["memory", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[:3] == ["protocol", "mode", "theta"]
    assert len(lines) == 2


def test_main_seed_env(tmp_path, monkeypatch):
    ini = write_ini(tmp_path, "[run]\nmode = sampled\ntrials = 50\n")
    monkeypatch.setenv("STOKESIM_SEED", "9")
    out = tmp_path / "r.json"
    assert cli.main(["memory", "--config", ini, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9


def _seed_from(source, seed, tmp_path, monkeypatch):
    """Config path and flags of a sampled run given `seed` by `source`."""
    text, flags = "[run]\nmode = sampled\ntrials = 10\n", []
    if source == "flag":
        flags = ["--seed", str(seed)]
    elif source == "env":
        monkeypatch.setenv("STOKESIM_SEED", str(seed))
    else:
        text += f"seed = {seed}\n"
    return write_ini(tmp_path, text), flags


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_seed_outside_64_bits_is_rejected(tmp_path, capsys, monkeypatch, source, seed):
    ini, flags = _seed_from(source, seed, tmp_path, monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["validate", "--config", ini, *flags]) == 2
    assert cli.main(["event-ready", "--config", ini, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("[0, 2^64)") == 2
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_largest_seed_runs(tmp_path, monkeypatch, source):
    seed = 2**64 - 1
    ini, flags = _seed_from(source, seed, tmp_path, monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["validate", "--config", ini, *flags]) == 0
    assert cli.main(["event-ready", "--config", ini, *flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == seed


def test_main_event_ready_ideal_serial_equals_parallel(tmp_path):
    # eta = 1: trials are drawn in bulk, chunk by chunk in each worker
    ini = write_ini(
        tmp_path,
        "[run]\nmode = sampled\ntrials = 20000\nseed = 8\n\n[source]\np0 = 0.1\n\n"
        "[detector]\neta = 1.0\ndark_prob = 0.01\n",
    )
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert cli.main(["event-ready", "--config", ini, "--out", str(serial)]) == 0
    assert cli.main(["event-ready", "--config", ini, "--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert json.loads(serial.read_text())["summary"]["success_count"] > 0


def test_main_event_ready_lossy_serial_equals_parallel(tmp_path, monkeypatch):
    # eta < 1: binomial loss draws; a small bulk block cuts each chunk of
    # 625 trials into several blocks (forked workers inherit it)
    monkeypatch.setattr(detection, "_BLOCK", 97)
    ini = write_ini(
        tmp_path,
        "[run]\nmode = sampled\ntrials = 20000\nseed = 8\n\n[source]\np0 = 0.1\n\n"
        "[detector]\neta = 0.8\ndark_prob = 1e-3\n",
    )
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert cli.main(["event-ready", "--config", ini, "--out", str(serial)]) == 0
    assert cli.main(["event-ready", "--config", ini, "--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert json.loads(serial.read_text())["summary"]["success_count"] > 0
