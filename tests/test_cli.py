"""CLI and report-format tests.

Golden files under data/ pin the exact report bytes of exact and sampled
event-ready and memory runs and of two exact sweeps; regenerate them
deliberately if the schema changes.
"""

import csv
import gc
import io
import json
import math
import os
import pathlib
import re
from contextlib import nullcontext

import numpy as np
import pytest

from fresh_python import run_python
from stokesim import cli, detection, fock, protocols, sampling
from stokesim.detection import DetectorSpec
from stokesim.errors import ConfigError, ValidationError
from stokesim.protocols import ProtocolConfig
from stokesim.sources import SourceParams

DATA = pathlib.Path(__file__).parent / "data"
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


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\np0 = 0.9\n", "[DEFAULT]\neta = 0.5\n\n[detector]\ndark_prob = 0\n", "[DEFAULT]\np0 = 0.05\n\n[run]\nmode = exact\n"],
    ids=["alone", "beside-detector", "beside-run"],
)
@pytest.mark.parametrize("command", ["validate", "event-ready"])
def test_a_default_section_is_an_unknown_section(tmp_path, capsys, command, text):
    # configparser would read [DEFAULT] as defaults for every section, unchecked
    out = tmp_path / "r.json"
    assert cli.main([command, "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown section [DEFAULT] (line 1); expected one of")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "event-ready"])
def test_two_headers_that_differ_in_case_are_rejected(tmp_path, capsys, command):
    # both name [source]; read one after the other, the second would drop the first's keys
    ini = write_ini(tmp_path, "[Source]\np0 = 0.05\n\n[source]\ncutoff = 8\n")
    out = tmp_path / "r.json"
    assert cli.main([command, "--config", ini, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: duplicate section [source] (line 4): section names ignore case\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[source]  # the source\np0 = 0.5\n", "bad value '0.5' for p0 in [source] (line 2): expected float in [0, 0.2]"),
        ("[run2] ; x\n", "unknown section [run2] (line 1); expected one of"),
        ("[source]\np0 = 0.01\n[Source] # again\n", "duplicate section [Source] (line 3): section names ignore case"),
        ("[source]\np0 = 0.01\n  [detector]\n", "bad value '0.01\\n[detector]' for p0 in [source] (line 2): expected float"),
        ("[ source ]\n", "unknown section [ source ] (line 1)"),
        ("[foo]\n\n[FOO]\n", "unknown section [foo] (line 1)"),
        ("[source]\n[Source]\n[SOURCE]\n", "duplicate section [Source] (line 2)"),
        ("[RUN]\np0 = 1\n[run]\np0 = 2\n", "unknown key 'p0' in [RUN] (line 2)"),
    ],
    ids=["commented-key-section", "commented-unknown", "commented-duplicate", "continuation", "spaced",
         "case-repeat-unknown", "case-repeat-duplicate", "case-repeat-key"],
)
def test_a_header_is_read_as_the_parser_reads_it(text, message):
    # a comment after a header, or an indented continuation line, does not move a line number;
    # an error names the line of the header or key it rejects, not of a later one in another case
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("command", ["validate", "event-ready"])
@pytest.mark.parametrize(
    "text, flags, origin",
    [("[run]\nout =\n", [], "in [run] (line 2)"), ("", ["--out", ""], "from --out")],
    ids=["file", "flag"],
)
def test_an_empty_out_is_a_config_error(tmp_path, capsys, command, text, flags, origin):
    assert cli.main([command, "--config", write_ini(tmp_path, text), *flags]) == 2
    assert capsys.readouterr().err == f"config error: bad value '' for out {origin}: expected str (not empty)\n"


def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError, match=r"unknown key 'pump' in \[source\] \(line 2\)"):
        cli.parse_config("[source]\npump = 0.01\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="expected float"):
        cli.parse_config("[source]\np0 = strong\n")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("[source]\nepr_enabled = maybe\n")
    # configparser's spellings, in its order
    assert str(exc.value) == "bad value 'maybe' for epr_enabled in [source] (line 2): expected bool (one of 1, yes, true, on, 0, no, false, off)"
    with pytest.raises(ConfigError, match="syntax error"):
        cli.parse_config("p0 = 0.01\n")


def test_parse_bool_and_complex_forms():
    assert cli.parse_config("[source]\nepr_enabled = off\n")["source"]["epr_enabled"] is False
    assert cli.parse_config("[source]\nepr_enabled = YES\n")["source"]["epr_enabled"] is True
    alpha = cli.parse_config("[source]\nalpha = 0.6+0.0j\n")["source"]["alpha"]
    assert alpha == 0.6 + 0.0j


def test_parse_sweep_values():
    sweep = cli.parse_config("[sweep]\nparameter = p0\nvalues = 0, 0.1 0.2,0.05\n")["sweep"]
    assert sweep == {"parameter": "p0", "values": (0.0, 0.1, 0.2, 0.05)}
    # an int key's item may be an integral decimal
    order = cli.parse_config("[sweep]\nparameter = emission_order\nvalues = 2.0, 3\n")["sweep"]["values"]
    assert order == (2, 3) and all(type(v) is int for v in order)
    with pytest.raises(ConfigError, match=r"^bad value '1.5' for emission_order in \[sweep\] values \(line 3\): expected int"):
        cli.parse_config("[sweep]\nparameter = emission_order\nvalues = 1, 1.5\n")
    with pytest.raises(ConfigError, match=r"^bad value 'two' for p0 in \[sweep\] values \(line 3\): expected float"):
        cli.parse_config("[sweep]\nparameter = p0\nvalues = 0.01, two\n")
    with pytest.raises(ConfigError, match="sweep needs"):
        cli.build_experiment(cli.parse_config("[sweep]\nparameter = p0\nvalues =  \n"), "sweep", {})
    # [sweep] is read in full whatever the command; a run of one protocol then drops it
    with pytest.raises(ConfigError, match=r"^bad value 'voltage' for parameter in \[sweep\] \(line 2\)"):
        cli.parse_config("[sweep]\nparameter = voltage\nvalues = two\n")
    sections = cli.parse_config("[sweep]\nparameter = theta\nvalues = 0.01\n")
    assert cli.build_experiment(sections, "memory", {}).sweep_parameter is None
    with pytest.raises(ConfigError, match="unknown key 'value'"):
        cli.parse_config("[sweep]\nvalue = 1\n")


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
        {"sweep": {"parameter": "p0", "values": (0.01, 0.02)}}, "sweep", {}
    )
    assert exp.protocol == "event-ready"  # sweep default
    assert exp.sweep_values == (0.01, 0.02)


def test_apply_sweep_value_each_parameter():
    base = cli.build_experiment({}, "memory", {}).config
    assert cli.apply_sweep_value(base, "p0", 0.05).source.p0 == 0.05
    assert cli.apply_sweep_value(base, "t", 0.5).source.t == 0.5
    order = cli.apply_sweep_value(base, "emission_order", 2.0).source.emission_order
    assert order == 2 and type(order) is int
    assert cli.apply_sweep_value(base, "eta", 0.7).detector.efficiency == 0.7
    assert cli.apply_sweep_value(base, "dark_prob", 1e-3).detector.dark_prob == 1e-3
    assert cli.apply_sweep_value(base, "theta", 0.3).theta == 0.3
    assert cli.apply_sweep_value(base, "phi", 0.4).phi == 0.4
    # checked as a [sweep] values item is
    with pytest.raises(ConfigError, match=r"^bad value '1.5' for emission_order in a sweep: expected int in \[1, inf\)$"):
        cli.apply_sweep_value(base, "emission_order", 1.5)
    with pytest.raises(ConfigError, match=r"^bad value 'mode' for parameter of a sweep: expected str \(one of p0,"):
        cli.apply_sweep_value(base, "mode", "sampled")


#: two values of each sweep parameter, far enough apart to move every number it feeds
SWEEP_PAIRS = {"p0": (0.01, 0.2), "t": (0.3, 0.7), "emission_order": (1, 2), "eta": (0.5, 0.9),
               "dark_prob": (0.0, 0.05), "theta": (0.3, 1.2), "phi": (0.3, 1.2)}


@pytest.mark.parametrize("protocol", cli._KEYS["protocol"][3])
@pytest.mark.parametrize("parameter", cli._KEYS["parameter"][3])
def test_a_sweep_over_a_parameter_the_protocol_does_not_read_is_an_error(protocol, parameter, tmp_path, capsys):
    # the two points give different exact reports, the echo of the parameter
    # aside, exactly when the protocol reads it, and a sweep over it runs exactly then
    base = cli.build_experiment({}, protocol, {}).config.replace(theta=0.7)  # at theta 0, phi is a global phase
    low, high = ({key: value for key, value in cli.run_protocol(protocol, cli.apply_sweep_value(base, parameter, v)).items()
                  if key != parameter} for v in SWEEP_PAIRS[parameter])
    reads = low != high
    ini = write_ini(tmp_path, f"[run]\nprotocol = {protocol}\n\n[sweep]\nparameter = {parameter}\nvalues = {' '.join(map(str, SWEEP_PAIRS[parameter]))}\n")
    assert cli.main(["sweep", "--config", ini, "--out", str(tmp_path / "r.json")]) == (0 if reads else 2)
    assert cli.main(["validate", "--config", ini]) == (0 if reads else 2)
    if not reads:
        assert f"config error: {protocol} does not read {parameter}: it sweeps " in capsys.readouterr().err


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


def test_a_report_string_that_json_dumps_would_escape_is_refused():
    # printable ASCII but `"` and `\\` is written as json.dumps writes it; a quote, a backslash,
    # a control character and anything past ASCII are refused, as a value and as a key
    plain = [chr(o) for o in range(0x20, 0x7F) if chr(o) not in '"\\']
    assert [c for c in plain if cli._json_str(c) != json.dumps(c)] == []
    for text in ('a "quoted" word', "C:\\path", "tab\there", "line\n", "\x7f", "\x00", "é", "\ud800", "\U0001f600"):
        for report in ({"key": text}, {text: 1}, {"rows": [text]}):
            with pytest.raises(ValidationError, match=re.escape(f"cannot write {text!r} in a report")):
                cli.to_json(report)


@pytest.fixture(scope="module")
def grid_reports():
    """The report of each protocol in both modes at a lossy detector: a single run, and a sweep
    over each parameter the protocol reads."""
    reports = []
    for protocol in cli._KEYS["protocol"][3]:
        for mode in ProtocolConfig.MODES:
            sections = {"run": {"mode": mode, "trials": 300, "seed": 3}, "detector": {"eta": 0.8, "dark_prob": 1e-3}}
            exp = cli.build_experiment(sections, protocol, {})
            reports.append(cli.run(exp))
            reports += [cli.run(exp.replace(sweep_parameter=p, sweep_values=SWEEP_PAIRS[p])) for p in cli._SWEEPS[protocol]]
    return reports


def test_reports_of_a_cli_grid_read_back_as_json_dumps_writes_them(grid_reports):
    # json.dumps is the reference writer; a complex number is the string of its two 17-digit parts
    assert len(grid_reports) == 30
    for report in grid_reports:
        expected = json.loads(json.dumps(report, default=lambda z: f"{z.real:.17g}{z.imag:+.17g}j"))
        assert json.loads(cli.to_json(report)) == expected


def test_csv_reports_are_written_as_the_csv_module_writes_them(grid_reports):
    for report in grid_reports:
        rows = report.get("rows") or [report["summary"]]
        columns = list(dict.fromkeys(key for row in rows for key in row))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([cli._csv_cell(row.get(c)) for c in columns] for row in rows)
        assert cli.render(report, "csv") == buf.getvalue()
    # a cell or column name the csv module would quote is refused, and so is a row of one
    # empty cell, which it writes as ""
    for text in ("a,b", 'a "quoted" word', "cr\r", "lf\n"):
        for rows in ([{"a": text, "b": 1}], [{text: 1, "b": 1}], [{"a": 1}, {"a": [0.5, text]}]):
            with pytest.raises(ValidationError, match="cannot write .* in a report"):
                cli.to_csv(rows)
    with pytest.raises(ValidationError, match="cannot write '' in a report"):
        cli.to_csv([{"a": None}])


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
    assert report["schema_version"] == 2
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


def _dense_grid():
    """(id, generate config text, the configs of its points, the emission
    orders among them past the dense bound) around that bound: emission
    orders 8-11 lossless and 4-7 behind an attenuator, each at cutoff
    2 * order; a tiny p0 at order 12, whose high orders fall below
    AMPLITUDE_EPS; and emission_order sweeps that cross the bound and stay
    below it."""
    run = "[run]\nprotocol = generate\n\n"
    cases = []
    for orders, t in (range(8, 12), None), (range(4, 8), 0.3):
        for n in orders:
            text = f"{run}[source]\nemission_order = {n}\ncutoff = {2 * n}\n" + ("" if t is None else f"t = {t}\n")
            over = [n] if n >= (10 if t is None else 6) else []
            cases.append((f"order-{n}-t={t}", text, [ProtocolConfig(source=SourceParams(emission_order=n, t=t), cutoff=2 * n)], over))
    text = f"{run}[source]\np0 = 1e-4\nemission_order = 12\ncutoff = 24\n"
    cases.append(("order-12-tiny-p0", text, [ProtocolConfig(source=SourceParams(p0=1e-4, emission_order=12), cutoff=24)], []))
    for values, over in ((8, 9, 10), [10]), ((4, 9), []):
        text = f"{run}[source]\ncutoff = 20\n\n[sweep]\nparameter = emission_order\nvalues = {', '.join(map(str, values))}\n"
        cases.append((f"sweep-{values}", text, [ProtocolConfig(source=SourceParams(emission_order=n), cutoff=20) for n in values], over))
    return cases


@pytest.mark.parametrize("text, points, expected", [case[1:] for case in _dense_grid()], ids=[case[0] for case in _dense_grid()])
def test_generate_past_the_dense_bound_fails_at_validate(tmp_path, capsys, text, points, expected):
    # validate rejects a config exactly where one of its points raises the
    # dense bound at run time, naming the same dimension, and every config it accepts runs
    from stokesim.analysis import generate_entanglement

    over = []
    for config in points:
        try:
            generate_entanglement(config)
        except ValidationError as exc:
            dim = re.fullmatch(r"kept subspace dimension (\d+) exceeds bound 64", str(exc)).group(1)
            over.append((config.source.emission_order, dim))
    ini, out = write_ini(tmp_path, text), tmp_path / "r.json"
    command = "sweep" if len(points) > 1 else "generate"
    assert cli.main(["validate", "--config", ini]) == (2 if over else 0)
    assert cli.main([command, "--config", ini, "--out", str(out)]) == (2 if over else 0)
    err = capsys.readouterr().err
    if over:
        order, dim = over[0]
        at = f" at emission_order = {order}" if command == "sweep" else ""
        assert err == f"config error: generate{at} keeps a subspace of dimension {dim}, above the dense bound 64; lower emission_order\n" * 2
        assert not out.exists()
    else:
        assert err == ""
        assert out.exists()
    assert [order for order, _ in over] == expected


def _ranged_keys():
    """key -> (section, type, (low, high, text)) of every config key whose
    field has an interval in its record's range table."""
    ranged = {}
    for key, (section, kind, target, _) in cli._KEYS.items():
        owner, _, name = target.rpartition(".")
        bounds = cli._OWNERS[owner]._ranges.get(name)
        if bounds is not None and section is not None:
            ranged[key] = (section, kind, bounds)
    return ranged


RANGED = _ranged_keys()


def _ini(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())


def _step(kind, x, toward):
    return x + (1 if toward > x else -1) if kind is int else math.nextafter(x, toward)


def _edge_values(kind, low, high, text):
    """Values that lie just inside and just outside each finite end; a
    float key is also given NaN and both infinities."""
    inside, outside = [], []
    for end, is_open, outward in ((low, text[0] == "(", -math.inf), (high, text[-1] == ")", math.inf)):
        if math.isinf(end):
            continue
        inside.append(_step(kind, end, -outward) if is_open else end)
        outside.append(end if is_open else _step(kind, end, outward))
    if kind is float:
        outside += [math.nan, math.inf, -math.inf]
    return inside, outside


def test_the_range_tables_cover_the_ten_intervals():
    assert sorted(RANGED) == sorted(
        ["trials", "seed", "p0", "t", "emission_order", "eta", "dark_prob", "theta", "phi", "retrieval_efficiency"]
    )


@pytest.mark.parametrize("key", sorted(RANGED))
@pytest.mark.parametrize("mode", ProtocolConfig.MODES)
@pytest.mark.parametrize("protocol", cli._KEYS["protocol"][3])
def test_each_range_end_runs_inside_and_is_a_config_error_outside(tmp_path, capsys, protocol, mode, key):
    section, kind, (low, high, text) = RANGED[key]
    inside, outside = _edge_values(kind, low, high, text)
    out = tmp_path / "r.json"
    for value, ok in [(v, True) for v in inside] + [(v, False) for v in outside]:
        sections = {"run": {"protocol": protocol, "mode": mode, "trials": 200, "seed": 1}}
        sections.setdefault(section, {})[key] = value
        ini = write_ini(tmp_path, _ini(sections))
        codes = cli.main(["validate", "--config", ini]), cli.main([protocol, "--config", ini, "--out", str(out)])
        err = capsys.readouterr().err
        if ok:
            assert codes == (0, 0), (key, value, err)
            out.unlink()
        else:
            assert codes == (2, 2), (key, value)
            assert err.count(text) == 2, (key, value, err)
            # the message names the config key, its section and its line, not the record field
            line = _ini(sections).splitlines().index(f"{key} = {value}") + 1
            assert err.count(f" for {key} in [{section}] (line {line}): expected {kind.__name__} in {text}") == 2, err
            assert not out.exists()


def _bad_values():
    """(command, config text, flags, STOKESIM_SEED, message) of a value out of
    its range or off its choices, given by each source a value can come from."""
    cases = []
    for key in cli._KEYS["parameter"][3]:
        _, kind, (low, high, text) = RANGED[key]
        inside, outside = _edge_values(kind, low, high, text)
        for value in outside:
            ini = f"[sweep]\nparameter = {key}\nvalues = {inside[0]}, {value}\n"
            cases.append(("sweep", ini, [], None, f"'{value}' for {key} in [sweep] values (line 3): expected {kind.__name__} in {text}"))
    cases.append(("sweep", "[sweep]\nparameter = emission_order\nvalues = 2.5\n", [], None,
                  "'2.5' for emission_order in [sweep] values (line 3): expected int in [1, inf)"))
    ranges = {"seed": "[0, 2^64)", "trials": "[1, inf)", "jobs": "[1, inf)"}
    for key, value in [("seed", "-1"), ("seed", str(2**64)), ("seed", "x"), ("trials", "0"), ("trials", "1.0"), ("jobs", "0")]:
        cases.append(("event-ready", "", [f"--{key}", value], None, f"'{value}' for {key} from --{key}: expected int in {ranges[key]}"))
    for value in ["-1", str(2**64), "x", ""]:
        cases.append(("event-ready", "", [], value, f"'{value}' for seed from STOKESIM_SEED: expected int in [0, 2^64)"))
    choices = {"protocol": "generate, event-ready, memory", "mode": "exact, sampled", "format": "json, csv"}
    for key, value in [("mode", "exakt"), ("format", "yaml")]:
        cases.append(("event-ready", "", [f"--{key}", value], None, f"'{value}' for {key} from --{key}: expected str (one of {choices[key]})"))
    for key, value in [("protocol", "teleport"), ("mode", "exakt"), ("format", "yaml")]:
        cases.append(("event-ready", f"[run]\n{key} = {value}\n", [], None,
                      f"'{value}' for {key} in [run] (line 2): expected str (one of {choices[key]})"))
    cases.append(("sweep", "[sweep]\nparameter = voltage\nvalues = 1\n", [], None,
                  "'voltage' for parameter in [sweep] (line 2): expected str (one of p0, theta, phi, t, eta, dark_prob, emission_order)"))
    return cases


@pytest.mark.parametrize("command, text, flags, env, message", _bad_values())
def test_every_bad_value_names_its_key_and_where_it_came_from(tmp_path, capsys, monkeypatch, command, text, flags, env, message):
    # one converter checks a value from a config line, a sweep item, a flag
    # or STOKESIM_SEED, and its one message names the key and the value's origin
    if env is not None:
        monkeypatch.setenv("STOKESIM_SEED", env)
    ini = write_ini(tmp_path, text)
    out = tmp_path / "r.json"
    assert cli.main(["validate", "--config", ini, *flags]) == 2
    assert cli.main([command, "--config", ini, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: bad value {message}\n" * 2
    assert not out.exists()


def _parity_cases():
    """(id, config text, flags, STOKESIM_SEED) of configs drawn from the key
    table and the range tables: each ranged key just inside and just outside
    its interval under a protocol and mode (every pair in turn), each choice
    key on and off its choices, `[sweep]` sections whole, with bad items, a
    failing joint rule or a missing key, values that a flag replaces, `%` in
    values and commented headers.  `@TMP@` stands for the test's directory."""
    out = ["--out", "@TMP@/r.json"]
    pairs = [(protocol, mode) for protocol in cli._KEYS["protocol"][3] for mode in ProtocolConfig.MODES]
    cases = []
    for i, key in enumerate(sorted(RANGED)):
        protocol, mode = pairs[i % len(pairs)]
        section, kind, bounds = RANGED[key]
        for value in [v for values in _edge_values(kind, *bounds) for v in values]:
            sections = {"run": {"protocol": protocol, "mode": mode, "trials": 20, "seed": 1}}
            sections.setdefault(section, {})[key] = value
            cases.append((f"{key}={value}-{protocol}-{mode}", _ini(sections), out, None))
    for key, (section, kind, _, choices) in cli._KEYS.items():
        if choices and section in ("run", "source"):
            for value in (*choices, "exakt"):
                cases.append((f"{key}={value}", f"[{section}]\n{key} = {value}\n", out, None))
    for key, values in ("alpha", ["0.6", "0.6+0j", "x", "nan"]), ("beta", ["0.8j"]), ("cutoff", ["8", "8.0", "1"]):
        cases += [(f"{key}={value}", f"[source]\n{key} = {value}\n", out, None) for value in values]
    for protocol in cli._KEYS["protocol"][3]:
        run = f"[run]\nprotocol = {protocol}\n"
        for parameter, values in [
            ("p0", "0.01, 0.02"), ("emission_order", "1, 2.0, 3"), ("theta", "1"),  # valid items
            ("p0", "0.01, 0.5"), ("eta", "x"), ("emission_order", "1.5"), ("phi", "nan"),  # bad items
            ("emission_order", "4"),  # 2 * emission_order > the default cutoff
            ("voltage", "1"), ("p0", ""),  # a bad parameter, no items
        ]:
            cases.append((f"sweep-{parameter}={values}-{protocol}", f"{run}[sweep]\nparameter = {parameter}\nvalues = {values}\n", out, None))
        for name, body in ("no-values", "parameter = p0\n"), ("no-parameter", "values = 0.01\n"), ("empty", ""):
            cases.append((f"sweep-{name}-{protocol}", f"{run}[sweep]\n{body}", out, None))
    cases += [
        ("flag-replaces-bad-mode", "[run]\nmode = exakt\n", ["--mode", "exact", *out], None),
        ("flag-replaces-bad-format", "[run]\nformat = yaml\n", ["--format", "json", *out], None),
        ("flag-replaces-mode", "[run]\nmode = sampled\n", ["--mode", "exact", *out], None),
        ("flag-replaces-format", "[run]\nformat = csv\n", ["--format", "json", *out], None),
        ("flag-seed", "[run]\nmode = sampled\ntrials = 20\n", ["--seed", "5", *out], None),
        ("flag-jobs-0", "", ["--jobs", "0", *out], None),
        ("env-seed", "[run]\nmode = sampled\ntrials = 20\n", out, "7"),
        ("env-seed-bad", "[run]\nmode = sampled\ntrials = 20\n", out, "x"),
        ("env-seed-replaced", "[run]\nseed = -1\n", ["--seed", "5", *out], "7"),
        ("percent-out", "[run]\nout = @TMP@/100%.json\n", [], None),
        ("percent-percent-out", "[run]\nout = @TMP@/%%.json\n", [], None),
        ("percent-p0", "[source]\np0 = 1%\n", out, None),
        ("percent-reference", "[source]\nalpha = 0.6\nbeta = %(alpha)s\nt = 0.5\n", out, None),
        ("empty-out", "[run]\nout =\n", [], None),
        ("empty-out-flag", "", ["--out", ""], None),
        ("commented-header", "[source]  # the source\np0 = 0.01\n", out, None),
        ("commented-header-bad-value", "[source] ; the source\np0 = 0.5\n", out, None),
        ("commented-unknown-header", "[run2] ; x\n", out, None),
        ("commented-duplicate-header", "[source]\np0 = 0.01\n[Source] # again\n", out, None),
        ("commented-sweep-header", "[sweep] # grid\nparameter = p0\nvalues = 0.01\n", out, None),
    ]
    return cases


PARITY = _parity_cases()


@pytest.mark.parametrize("text, flags, env", [case[1:] for case in PARITY], ids=[case[0] for case in PARITY])
def test_a_config_that_validate_rejects_fails_every_command(tmp_path, capsys, monkeypatch, text, flags, env):
    # one reading of the file: with the same flags and environment, a config that
    # validate rejects fails every command, and one it accepts runs its own command
    monkeypatch.delenv("STOKESIM_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("STOKESIM_SEED", env)
    text = text.replace("@TMP@", str(tmp_path))
    args = ["--config", write_ini(tmp_path, text), *(flag.replace("@TMP@", str(tmp_path)) for flag in flags)]
    code = cli.main(["validate", *args])
    assert code in (0, 2)
    if code == 2:
        for command in ("generate", "event-ready", "memory", "sweep"):
            assert cli.main([command, *args]) == 2, command
        assert capsys.readouterr().err.count("config error: ") == 5
        assert not any(tmp_path.glob("*.json"))
    else:
        sections = cli.parse_config(text)
        command = "sweep" if "sweep" in sections else sections.get("run", {}).get("protocol", "event-ready")
        assert cli.main([command, *args]) == 0, capsys.readouterr().err
        assert len(list(tmp_path.glob("*.json"))) == 1


@pytest.mark.parametrize(
    "cutoff, warned, probability",
    [
        (6, "cutoff 6 cuts the EPR ancilla at emission_order 3; cutoff >= 8 keeps it whole", "0.0050070531628821332"),
        (8, None, "0.0050072363115412346"),
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
    # each ranged key's line states the interval of its record's table
    for key, (_, _, (_, _, text)) in RANGED.items():
        line = re.search(rf"^[;\s]*{key}\s*=.*$", block, re.M).group(0)
        assert text in line, key


ECHOED = {
    "generate-exact": ("generate", "[run]\nprotocol = generate\n"),
    "generate-sampled": ("generate", "[run]\nprotocol = generate\nmode = sampled\ntrials = 50\nseed = 3\n"),
    "event-ready-exact": ("event-ready", "[source]\np0 = 0.05\nemission_order = 2\n"),
    "event-ready-sampled": ("event-ready", "[run]\nmode = sampled\ntrials = 300\nseed = 5\n\n[detector]\neta = 0.8\ndark_prob = 1e-3\n"),
    "memory-exact": ("memory", "[run]\nprotocol = memory\n\n[memory]\ntheta = 0.7\nphi = 1.9\nretrieval_efficiency = 0.9\n"),
    "memory-sampled": ("memory", "[run]\nprotocol = memory\nmode = sampled\ntrials = 300\nseed = 6\n\n[memory]\ntheta = 0.4\n"),
    "readme": ("sweep", None),
    "complex-beta": ("event-ready", "[source]\nalpha = 0.6\nbeta = 0.8j\n"),
    "explicit-t": ("generate", "[run]\nprotocol = generate\n\n[source]\nt = 0.3\n"),
    "no-epr": ("event-ready", "[source]\nepr_enabled = false\n\n[detector]\ndark_prob = 0.01\n"),
    "sweep-two-values": ("sweep", "[run]\nprotocol = memory\n\n[sweep]\nparameter = theta\nvalues = 0.3, 1.2\n"),
}


@pytest.mark.parametrize("name", ECHOED)
def test_the_config_echo_reruns_to_the_same_report(tmp_path, name):
    # the report's config echo, written back as INI with the seed and the
    # sweep, must mean the same experiment: its rerun gives the same bytes
    command, text = ECHOED[name]
    if text is None:
        text = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main([command, "--config", write_ini(tmp_path, text), "--out", str(first)]) == 0
    report = json.loads(first.read_text())
    sections: dict = {}
    for key, value in {**report["config"], "seed": report["seed"]}.items():
        if value is not None:
            sections.setdefault(cli._KEYS[key][0], {})[key] = cli._csv_cell(value)
    if "sweep" in report:
        sections["sweep"] = {"parameter": report["sweep"]["parameter"], "values": ", ".join(map(cli._csv_cell, report["sweep"]["values"]))}
    assert cli.main([command, "--config", write_ini(tmp_path, _ini(sections), "echo.ini"), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("command", ["validate", "memory"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[source]\np0 = 0.01 ; \xe9t\xe9\n")
    assert cli.main([command, "--config", str(ini), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {str(ini)!r}: 'utf-8' codec")
    assert not (tmp_path / "r.json").exists()


def test_python_m_stokesim_runs_the_cli(tmp_path):
    ini = write_ini(tmp_path, "[run]\nprotocol = memory\n\n[memory]\ntheta = 0.7\n")
    proc = run_python("-m", "stokesim", "validate", "--config", ini)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("config ok\nprotocol = memory\n")


def test_importing_the_cli_leaves_the_pool_unimported():
    probe = "import sys, stokesim.cli as c; print('concurrent.futures' in sys.modules, c.ProcessPoolExecutor.__name__)"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    # absent after the import; read on the module, the class is imported then
    assert proc.stdout == "False ProcessPoolExecutor\n"


def test_importing_the_cli_leaves_csv_unimported():
    probe = "import sys, stokesim.cli as c; print('csv' in sys.modules, c.to_csv([{'a': 1}]) == 'a\\n1\\n', 'csv' in sys.modules)"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    # absent after the import, and CSV output does not import it
    assert proc.stdout == "False True False\n"


# ---------------------------------------------------------------------------
# the cyclic collector of the process a command runs in

#: case -> (exit code, argv with {out} for a report path and {dir} for a directory, start of stderr)
ENTRY_CASES = {
    "run": (0, "event-ready --mode sampled --trials 2000 --seed 5 --out {out}", ""),
    "config-error": (2, "event-ready --trials 0 --out {out}", "config error: bad value '0' for trials"),
    "usage-error": (2, "teleport --out {out}", "usage: stokesim"),
    "run-error": (3, "generate --out {dir}", "error: "),
}
#: a process's own command line: the console script's entry, and `python -m stokesim`
#: as `runpy` runs it, so that a hook can be registered first
ENTRIES = {
    "console-script": "from stokesim.cli import main; sys.exit(main())",
    "python-m": "import runpy; runpy.run_module('stokesim', run_name='__main__', alter_sys=True)",
}
#: registered before the command, so it runs after whatever the command registers
AT_EXIT = "import atexit, gc, sys; atexit.register(lambda: print('collector', gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)); "


def _entry_case(case, tmp_path):
    rc, args, err = ENTRY_CASES[case]
    return rc, [arg.format(out=tmp_path / "r.json", dir=tmp_path) for arg in args.split()], err


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", ["run", "config-error", "run-error"])
def test_main_with_argv_leaves_the_hosts_collector_as_it_was(tmp_path, capsys, case, enabled):
    rc, argv, err = _entry_case(case, tmp_path)
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(argv) == rc
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("case", ENTRY_CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_process_runs_its_own_command_with_the_collector_off_and_exits_frozen(tmp_path, capsys, entry, case):
    # the interpreter's shutdown collections then skip every object; stdout,
    # stderr, the report and the exit code are those of a host's in-process run
    rc, argv, err = _entry_case(case, tmp_path)
    proc = run_python("-c", AT_EXIT + ENTRIES[entry], *argv)
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr.startswith(err) and proc.stderr.endswith("collector False True\n")
    report = (tmp_path / "r.json").read_bytes() if rc == 0 else None
    with pytest.raises(SystemExit) if case == "usage-error" else nullcontext():
        assert cli.main(argv) == rc
    assert capsys.readouterr() == (proc.stdout, proc.stderr.removesuffix("collector False True\n"))
    if report is not None:
        assert json.loads(report)["summary"]["trials"] == 2000
        assert (tmp_path / "r.json").read_bytes() == report


def _sized_command(tmp_path, kind, size):
    """An order-5 exact sweep of `size` points or a sampled event-ready run of `size` trials."""
    out = ["--out", str(tmp_path / "r.json")]
    if kind == "exact-sweep":
        values = ", ".join(repr(0.002 + 0.198 * i / 23) for i in range(size))
        text = f"[source]\nemission_order = 5\ncutoff = 12\n\n[detector]\neta = 1.0\ndark_prob = 0.0\n\n[sweep]\nparameter = p0\nvalues = {values}\n"
        return ["sweep", "--config", write_ini(tmp_path, text, f"sweep-{size}.ini"), *out]
    ini = write_ini(tmp_path, "[source]\np0 = 0.01\n\n[detector]\neta = 1.0\ndark_prob = 1e-5\n")
    return ["event-ready", "--config", ini, "--mode", "sampled", "--seed", "7", "--trials", str(size), *out]


def _garbage_after(argv):
    """Objects that `gc.collect` frees after one in-process command run with the collector off."""
    gc.collect()
    assert cli.main(argv) == 0
    return gc.collect()


@pytest.mark.parametrize("kind, large", [("exact-sweep", 24), ("sampled-event-ready", 80_000)])
def test_the_cyclic_garbage_of_a_command_does_not_grow_with_its_size(tmp_path, kind, large):
    # a process that runs its own command never collects, so what the
    # command leaves in cycles must not grow with its points or trials
    small, large = _sized_command(tmp_path, kind, 1), _sized_command(tmp_path, kind, large)
    was = gc.isenabled()
    gc.disable()
    try:
        for argv in small, large:  # the first runs fill the caches, and evict what other tests left there
            _garbage_after(argv)
        assert _garbage_after(large) <= _garbage_after(small)
    finally:
        (gc.enable if was else gc.disable)()


COMMANDS = ("generate", "event-ready", "memory", "sweep", "validate")
ALL_OPTIONS = {"config": "c.ini", "seed": "3", "mode": "sampled", "trials": "7", "out": "r.csv", "format": "csv", "jobs": "2"}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("before", [False, True], ids=["options-after", "options-before"])
def test_every_command_takes_all_seven_options(command, before):
    options = [arg for key, value in ALL_OPTIONS.items() for arg in (f"--{key}", str(value))]
    argv = [*options, command] if before else [command, *options]
    assert cli._parse_args(argv) == {"command": command, **ALL_OPTIONS}


def test_jobs_defaults_to_one():
    assert cli._parse_args(["memory"])["jobs"] is None
    assert cli.build_experiment({}, "memory", {}).jobs == 1


#: the usage that heads every usage error, in the layout argparse gave it on
#: a terminal 80 columns wide; it no longer follows COLUMNS
USAGE = """usage: stokesim [-h] [--config CONFIG] [--seed SEED] [--mode MODE]
                [--trials TRIALS] [--out OUT] [--format FORMAT] [--jobs JOBS]
                {generate,event-ready,memory,sweep,validate}
"""
CHOICE = "argument command: invalid choice: {!r} (choose from 'generate', 'event-ready', 'memory', 'sweep', 'validate')"
AMBIGUOUS = "ambiguous option: {} could match --help, --config, --seed, --mode, --trials, --out, --format, --jobs"

#: argv -> how Python 3.11's argparse read it: the values given, 0 for help,
#: or the message of the usage error (exit 2) it printed after the usage
PARSER_CASES = [
    ([], "the following arguments are required: command"),
    (["memory"], {"command": "memory"}),
    (["Memory"], CHOICE.format("Memory")),
    (["teleport"], CHOICE.format("teleport")),
    ([""], CHOICE.format("")),
    (["-"], CHOICE.format("-")),
    (["-- memory"], CHOICE.format("-- memory")),
    (["--conf", "c.ini", "validate"], {"command": "validate", "config": "c.ini"}),
    (["--c=c.ini", "validate"], {"command": "validate", "config": "c.ini"}),
    (["validate", "--config=a=b"], {"command": "validate", "config": "a=b"}),
    (["--mode=exact", "validate"], {"command": "validate", "mode": "exact"}),
    (["memory", "--jobs", "-2"], {"command": "memory", "jobs": "-2"}),
    (["memory", "--seed", "-1"], {"command": "memory", "seed": "-1"}),
    (["--trials", "-1.5", "memory"], {"command": "memory", "trials": "-1.5"}),
    (["--trials", "-.5", "memory"], {"command": "memory", "trials": "-.5"}),
    (["--jobs=-2", "memory"], {"command": "memory", "jobs": "-2"}),
    (["--seed", "-1e3", "memory"], "argument --seed: expected one argument"),
    (["--seed", "-x", "memory"], "argument --seed: expected one argument"),
    (["--seed=", "memory"], {"command": "memory", "seed": ""}),
    (["memory", "--seed"], "argument --seed: expected one argument"),
    (["memory", "--seed", "1", "--seed", "2"], {"command": "memory", "seed": "2"}),
    (["--seed", "1", "2", "memory"], CHOICE.format("2")),
    (["--out", "--mode", "memory"], "argument --out: expected one argument"),
    (["--out", "-my report.json", "memory"], {"command": "memory", "out": "-my report.json"}),
    (["--out", "-", "memory"], {"command": "memory", "out": "-"}),
    (["memory", "extra"], "unrecognized arguments: extra"),
    (["memory", "generate"], "unrecognized arguments: generate"),
    (["memory", "x", "y"], "unrecognized arguments: x y"),
    (["memory", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
    (["--bogus", "memory"], "unrecognized arguments: --bogus"),
    (["-x", "memory"], "unrecognized arguments: -x"),
    (["--unknown=3", "memory"], "unrecognized arguments: --unknown=3"),
    (["--SEED", "1", "memory"], CHOICE.format("1")),
    (["teleport", "--seed"], CHOICE.format("teleport")),
    (["--", "memory"], {"command": "memory"}),
    (["memory", "--", "x"], "unrecognized arguments: x"),
    (["--", "--seed", "1"], CHOICE.format("--seed")),
    (["--seed", "--", "3", "memory"], "argument --seed: expected one argument"),
    (["memory", "--seed", "--"], "argument --seed: expected one argument"),
    (["memory", "--format", "csv", "--form=json", "--j", "3"], {"command": "memory", "format": "json", "jobs": "3"}),
    (["-h"], 0),
    (["--h"], 0),
    (["memory", "--help"], 0),
    (["--help", "teleport"], 0),
    (["teleport", "--help"], CHOICE.format("teleport")),
    (["memory", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    (["-hh", "memory"], 0),
    (["-hx", "memory"], "argument -h/--help: ignored explicit argument 'x'"),
    (["-h=", "memory"], "argument -h/--help: ignored explicit argument ''"),
    (["--=", "memory"], AMBIGUOUS.format("--=")),
    (["--seed", "--=x", "memory"], AMBIGUOUS.format("--=x")),
    (["--", "--="], CHOICE.format("--=")),
]


@pytest.mark.parametrize(("argv", "expected"), PARSER_CASES, ids=[" ".join(argv) for argv, _ in PARSER_CASES])
def test_the_command_line_reads_as_argparse_read_it(argv, expected, capsys, monkeypatch):
    for columns in ("40", "80", "200"):  # argparse wrapped the usage to the terminal; the hand parser does not
        monkeypatch.setenv("COLUMNS", columns)
        try:
            got = {key: value for key, value in cli._parse_args(argv).items() if value is not None}
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        if isinstance(expected, str):
            assert (got, err) == (2, f"{USAGE}stokesim: error: {expected}\n")
        else:
            assert (got, err) == (expected, "")


def test_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: stokesim [-h] [--config CONFIG]")
    assert all(command in out for command in COMMANDS) and all(f"--{key} {key.upper()}" in out for key in ALL_OPTIONS)


def test_unknown_command_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["teleport"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stokesim") and "invalid choice: 'teleport'" in err


def test_an_option_before_the_command_is_accepted(capsys):
    assert cli.main(["--mode", "exact", "validate"]) == 0
    assert capsys.readouterr().out.startswith("config ok\nprotocol = event-ready\nmode = exact\n")


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


def test_exact_runs_open_no_pool(tmp_path, monkeypatch):
    # only sampled event-ready and memory trials are mapped in chunks
    opened = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: opened.append(max_workers))
    sweep = ["sweep", "--config", write_ini(tmp_path, "[sweep]\nparameter = p0\nvalues = 0.01, 0.1\n")]
    runs = (sweep, sweep + ["--jobs", "2"], ["event-ready", "--jobs", "2"], ["generate", "--mode", "sampled", "--seed", "1", "--jobs", "2"])
    reports = [tmp_path / f"{i}.json" for i in range(len(runs))]
    for argv, out in zip(runs, reports):
        assert cli.main(argv + ["--out", str(out)]) == 0
    assert opened == []
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_an_exact_sweep_with_jobs_leaves_the_pool_unimported(tmp_path):
    ini = write_ini(tmp_path, "[sweep]\nparameter = p0\nvalues = 0.01\n")
    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    assert cli.main(["sweep", "--config", ini, "--out", str(serial)]) == 0
    argv = ["sweep", "--config", ini, "--out", str(pooled), "--jobs", "2"]
    probe = f"import sys; from stokesim import cli; cli.main({argv!r}); print('concurrent.futures' in sys.modules)"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert serial.read_bytes() == pooled.read_bytes()


#: probe -> (command, None to only import the package and the CLI; config text,
#: "readme" for the README's or None for none; flags; exit code; whether numpy
#: gets imported; which of the package modules that hold numpy code it loads)
NUMPY_PROBES = {
    "import": (None, None, [], 0, False, set()),
    "validate-readme": ("validate", "readme", [], 0, False, set()),
    "config-error": ("event-ready", "[source]\np0 = 0.5\n", [], 2, False, set()),
    "exact-event-ready": ("event-ready", None, [], 0, False, set()),
    "exact-lossy-event-ready": ("event-ready", "[detector]\neta = 0.8\ndark_prob = 1e-3\n", [], 0, False, set()),
    "exact-sweep": ("sweep", "[source]\nemission_order = 5\ncutoff = 12\n\n[sweep]\nparameter = p0\nvalues = 0.01, 0.1, 0.2\n", [], 0, False, set()),
    "sampled-event-ready": ("event-ready", None, ["--mode", "sampled", "--trials", "200", "--seed", "1"], 0, True, {"sampling", "rng"}),
    "exact-memory": ("memory", None, [], 0, True, {"metrics"}),
    "generate": ("generate", None, [], 0, True, {"analysis", "metrics"}),
    "validate-generate": ("validate", "[run]\nprotocol = generate\n\n[source]\nemission_order = 9\ncutoff = 18\n", [], 0, False, set()),
    "generate-past-the-dense-bound": ("generate", "[source]\nemission_order = 10\ncutoff = 20\n", [], 2, False, set()),
}
#: the package modules that import numpy at the top, directly or through each other
NUMPY_HOLDERS = {"sampling", "analysis", "metrics", "rng"}
#: the standard-library modules a command adds to a bare interpreter, beside stokesim's own and numpy's
START_UP = {"__future__", "cmath", "gc"}


@pytest.fixture(scope="module")
def numpy_modules():
    """The modules that `import numpy` adds to a bare interpreter."""
    proc = run_python("-c", "import sys; bare = set(sys.modules); import numpy; print(*sorted(sys.modules.keys() - bare))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("name", NUMPY_PROBES)
def test_only_runs_that_build_arrays_import_numpy(tmp_path, name, numpy_modules):
    # exact event-ready runs and sweeps, lossy ones included, validate and config
    # errors compute in built-in floats and complex and load no module that holds numpy code;
    # sampled runs, memory and generate need arrays, and load only the holders they use
    command, text, flags, rc, imports, holders = NUMPY_PROBES[name]
    argv = None
    if command is not None:
        if text == "readme":
            text = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
        argv = [command, "--out", str(tmp_path / "r.json"), *flags]
        argv += ["--config", write_ini(tmp_path, text)] if text is not None else []
    probe = (
        f"import sys; bare = set(sys.modules); import stokesim, stokesim.cli as c; rc = 0 if {argv!r} is None else c.main({argv!r}); "
        "print(rc, 'numpy' in sys.modules, *sorted(m.removeprefix('stokesim.') for m in sys.modules if m.startswith('stokesim.'))); "
        "print(*sorted(m for m in sys.modules.keys() - bare if m.partition('.')[0] != 'stokesim'))"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, *loaded = proc.stdout.splitlines()[-2].split()
    assert f"{code} {numpy_loaded}" == f"{rc} {imports}"
    assert set(loaded) & NUMPY_HOLDERS == holders
    # an allowlist: argparse (with its gettext and locale), configparser, json or any
    # other standard-library module that start-up gains fails here without being named
    assert set(proc.stdout.splitlines()[-1].split()) - (numpy_modules if imports else set()) == START_UP
    if command not in (None, "validate") and rc == 0:
        report = json.loads((tmp_path / "r.json").read_text())
        assert len(report["rows"]) == 3 if command == "sweep" else report["protocol"] == command


def test_an_exact_event_ready_sweep_builds_no_herald_state(tmp_path, monkeypatch):
    # the report reads each point's herald probabilities and fidelity off the
    # analyzer: no heralded state, and a conditional only for a herald pattern
    # whose group reaches the target
    mixed, conditioned = [], []
    build, condition = protocols._mixed, detection.PreparedBellAnalyzer.conditional

    def building(*args):
        mixed.append(args)
        return build(*args)

    def conditioning(prep, occ):
        conditioned.append((prep, occ))
        return condition(prep, occ)

    monkeypatch.setattr(protocols, "_mixed", building)
    monkeypatch.setattr(detection.PreparedBellAnalyzer, "conditional", conditioning)
    ini = write_ini(tmp_path, "[source]\nemission_order = 5\ncutoff = 12\n\n[sweep]\nparameter = p0\nvalues = 0.01, 0.1, 0.2\n")
    out = tmp_path / "r.json"
    assert cli.main(["sweep", "--config", ini, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["p0"] for row in rows] == [0.01, 0.1, 0.2] and all(row["heralded_fidelity"] > 0.5 for row in rows)
    assert mixed == []
    calls, conditioned[:] = list(conditioned), []
    preps = list(dict.fromkeys(prep for prep, _ in calls))
    assert len(preps) == 3
    for prep in preps:
        target = protocols._target(prep.layout.conditional_registry)
        heralds = [occ for outcome, entries in prep.outcome_weights().items() if outcome != detection.FAIL for occ, _ in entries]
        reaching = [occ for occ in heralds if any(st.amplitudes.keys() & target.amplitudes.keys() for _, st in condition(prep, occ).branches)]
        assert sorted(occ for p, occ in calls if p is prep) == sorted(reaching)
        if prep is preps[1]:
            assert (len(reaching), len(heralds)) == (4, 108)
    # an API caller still gets the heralded state, built from the conditionals, beside the same report
    heralded, report = protocols.event_ready_generation(ProtocolConfig(source=SourceParams(p0=0.1, emission_order=5), cutoff=12))
    assert isinstance(heralded, fock.MixedState) and len(heralded.branches) > 2
    # (every herald entry for the state, the four that reach the target again for the fidelity)
    assert len(mixed) == 1 and len(conditioned) == 108 + 4
    assert rows[1] == {"p0": 0.1, **report}


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


def test_a_config_value_outside_its_range_is_an_error_even_where_a_flag_overrides_it(tmp_path, capsys):
    # the file is checked on its own, and its error names the key and line
    ini = write_ini(tmp_path, "[run]\nmode = sampled\ntrials = 0\nseed = 1\n")
    assert cli.main(["validate", "--config", ini, "--trials", "5"]) == 2
    assert capsys.readouterr().err == "config error: bad value '0' for trials in [run] (line 3): expected int in [1, inf)\n"
    # and so is a value off its key's choices, where a flag replaces it
    out = tmp_path / "r.json"
    for key, value, flag, choices in ("mode", "exakt", "exact", "exact, sampled"), ("format", "yaml", "json", "json, csv"):
        ini = write_ini(tmp_path, f"[run]\n{key} = {value}\n")
        assert cli.main(["validate", "--config", ini, f"--{key}", flag]) == 2
        assert cli.main(["generate", "--config", ini, f"--{key}", flag, "--out", str(out)]) == 2
        message = f"config error: bad value '{value}' for {key} in [run] (line 2): expected str (one of {choices})\n"
        assert capsys.readouterr().err == message * 2
        assert not out.exists()
    # a flag's value is checked by the same converter, and its error names the flag
    ini = write_ini(tmp_path, "[run]\nseed = 5\n")
    assert cli.main(["validate", "--config", ini, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: bad value '-1' for seed from --seed: expected int in [0, 2^64)\n"


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_largest_seed_runs(tmp_path, monkeypatch, source):
    seed = 2**64 - 1
    ini, flags = _seed_from(source, seed, tmp_path, monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["validate", "--config", ini, *flags]) == 0
    assert cli.main(["event-ready", "--config", ini, *flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == seed


def test_main_event_ready_ideal_serial_equals_parallel(tmp_path):
    # eta = 1: trials are drawn in bulk, one block per pool task; at
    # _BLOCK trials the run is one task, at _BLOCK + 1 a full block and one trial
    for trials in (20000, sampling._BLOCK, sampling._BLOCK + 1):
        ini = write_ini(
            tmp_path,
            f"[run]\nmode = sampled\ntrials = {trials}\nseed = 8\n\n[source]\np0 = 0.1\n\n"
            "[detector]\neta = 1.0\ndark_prob = 0.01\n",
        )
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert cli.main(["event-ready", "--config", ini, "--out", str(serial)]) == 0
        assert cli.main(["event-ready", "--config", ini, "--out", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        summary = json.loads(serial.read_text())["summary"]
        assert summary["trials"] == trials and summary["success_count"] > 0


def test_main_event_ready_lossy_serial_equals_parallel(tmp_path, monkeypatch):
    # eta < 1: binomial loss draws; a small bulk block cuts the run into
    # 207 pool tasks, the last one of 18 trials
    monkeypatch.setattr(sampling, "_BLOCK", 97)
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
