"""Command-line front end.

Subcommands `generate`, `event-ready`, `memory`, `sweep`, and `validate`
read a flat INI-style config (every key optional: the schema below names
its type and the config field it sets, whose dataclass holds its default),
run the protocol in exact or sampled mode, and emit a machine-readable
report as JSON or CSV.

Reports are deterministic: keys appear in fixed order, floats are
printed with 17 significant digits, trials derive their random streams
from (seed, trial index), and aggregation happens in trial order no
matter how trials were executed — so a (config, seed) pair maps to
byte-identical output, serial or parallel.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import reduce

from . import __version__, protocols
from .detection import DetectorSpec
from .errors import ConfigError, StokesimError, ValidationError
from .protocols import ProtocolConfig
from .sources import SourceParams

SCHEMA_VERSION = 1

SWEEP_PARAMETERS = ("p0", "theta", "phi", "t", "eta", "dark_prob", "emission_order")

#: section -> key -> (type, range description, the `ProtocolConfig` field
#: the key sets, dotted into `source` and `detector`, or None)
_SCHEMA = {
    "run": {
        "protocol": (str, "one of generate, event-ready, memory", None),
        "mode": (str, "exact or sampled", "mode"),
        "trials": (int, ">= 1", "trials"),
        "seed": (int, "[0, 2^64)", "seed"),
        "out": (str, "output path", None),
        "format": (str, "json or csv", None),
    },
    "source": {
        "p0": (float, "[0, 0.2]", "source.p0"),
        "alpha": (complex, "|alpha|^2 + |beta|^2 = 1", "source.alpha"),
        "beta": (complex, "|alpha|^2 + |beta|^2 = 1", "source.beta"),
        "t": (float, "[0, 1]", "source.t"),
        "emission_order": (int, ">= 1", "source.emission_order"),
        "cutoff": (int, ">= 2 * emission_order; memory: >= 3", "cutoff"),
        "epr_enabled": (bool, "true or false", "epr_enabled"),
    },
    "detector": {
        "eta": (float, "[0, 1]", "detector.efficiency"),
        "dark_prob": (float, "[0, 1)", "detector.dark_prob"),
    },
    "memory": {
        "theta": (float, "[0, pi]", "theta"),
        "phi": (float, "[0, 2*pi)", "phi"),
        "retrieval_efficiency": (float, "[0, 1]", "retrieval_efficiency"),
    },
    "sweep": {
        "parameter": (str, f"one of {', '.join(SWEEP_PARAMETERS)}", None),
        "values": (str, "comma- or space-separated numbers", None),
    },
}

#: key -> (type, target field) of every key that sets a `ProtocolConfig` field, in table order
_FIELDS = {
    key: (kind, target)
    for keys in _SCHEMA.values()
    for key, (kind, _, target) in keys.items()
    if target is not None
}

_PROTOCOLS = ("generate", "event-ready", "memory")


@dataclass(frozen=True)
class ExperimentConfig:
    config: ProtocolConfig
    protocol: str = "event-ready"
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    out: str | None = None
    format: str = "json"
    jobs: int = 1


def _line_map(text: str) -> dict[tuple[str, str | None], int]:
    """Map (section, key) -> 1-based line number for diagnostics."""
    lines: dict[tuple[str, str | None], int] = {}
    section: str | None = None
    for no, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith(("#", ";")):
            continue
        if s.startswith("[") and s.endswith("]"):
            section = s[1:-1].strip().lower()
            lines[(section, None)] = no
        elif section is not None and ("=" in s or ":" in s):
            key = re.split(r"[=:]", s, maxsplit=1)[0].strip().lower()
            lines[(section, key)] = no
    return lines


def _convert(section: str, key: str, raw: str, lines) -> object:
    kind, valid, _ = _SCHEMA[section][key]
    where = _at(lines, section, key)
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind is complex:
            return complex(raw.replace(" ", ""))
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"bad value {raw!r} for {key} in [{section}]{where}: expected {kind.__name__} ({valid})"
        ) from None


def _at(lines, section: str, key: str | None) -> str:
    no = lines.get((section, key))
    return f" (line {no})" if no else ""


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse and validate the INI text into typed {section: {key: value}};
    unknown sections or keys are errors that name the offending line."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    lines = _line_map(text)
    out: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        low = section.lower()
        if low not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]{_at(lines, low, None)}; "
                f"expected one of {', '.join(sorted(_SCHEMA))}"
            )
        out[low] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[low]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]{_at(lines, low, key)}; "
                    f"valid keys: {', '.join(sorted(_SCHEMA[low]))}"
                )
            out[low][key] = _convert(low, key, raw, lines)
    return out


def _parse_values(raw: str) -> tuple[float, ...]:
    parts = [p for p in re.split(r"[,\s]+", raw.strip()) if p]
    if not parts:
        raise ConfigError("sweep values list is empty")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad sweep value: {exc}") from None


def build_experiment(
    sections: dict[str, dict[str, object]],
    command: str,
    overrides: dict[str, object],
) -> ExperimentConfig:
    """Merge command-line overrides over `STOKESIM_SEED` over the
    config-file sections over the dataclass defaults into a validated
    experiment description."""
    values = {key: value for keys in sections.values() for key, value in keys.items()}
    protocol = command if command != "sweep" else str(values.get("protocol", ExperimentConfig.protocol))
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"protocol {protocol!r} must be one of {', '.join(_PROTOCOLS)}")
    if command != "sweep" and values.get("protocol", command) != command:
        raise ConfigError(f"config names protocol {values['protocol']!r} but the {command!r} subcommand was invoked")

    env = os.environ.get("STOKESIM_SEED")
    if env is not None and overrides.get("seed") is None:
        try:
            values["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"STOKESIM_SEED={env!r} is not an integer") from None
    values.update((key, value) for key, value in overrides.items() if value is not None)
    if values.get("mode") == "sampled" and "seed" not in values:
        raise ConfigError("sampled mode requires a seed (flag --seed, STOKESIM_SEED, or [run] seed)")

    groups: dict[str, dict[str, object]] = {"": {}, "source": {}, "detector": {}}
    for key, (_, target) in _FIELDS.items():
        if key in values:
            owner, _, name = target.rpartition(".")
            groups[owner][name] = values[key]
    try:
        config = ProtocolConfig(
            source=SourceParams(**groups["source"]),
            detector=DetectorSpec(**groups["detector"]),
            **groups[""],
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    if protocol == "memory" and config.cutoff < 3:
        raise ConfigError(f"memory needs cutoff >= 3 (channel plus input photon), got {config.cutoff}")

    sweep_parameter = None
    sweep_values: tuple[float, ...] = ()
    if command == "sweep":
        if "parameter" not in values or "values" not in values:
            raise ConfigError("sweep needs [sweep] parameter and values")
        sweep_parameter = str(values["parameter"])
        sweep_values = _parse_values(str(values["values"]))
        try:
            for value in sweep_values:
                apply_sweep_value(config, sweep_parameter, value)
        except ValidationError as exc:
            raise ConfigError(f"sweep {sweep_parameter} = {value:g}: {exc}") from None

    fmt = str(values.get("format", ExperimentConfig.format))
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format {fmt!r} must be json or csv")
    jobs = int(values.get("jobs", ExperimentConfig.jobs))
    if jobs < 1:
        raise ConfigError(f"--jobs {jobs} must be >= 1")
    return ExperimentConfig(
        protocol=protocol,
        config=config,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        out=values.get("out"),
        format=fmt,
        jobs=jobs,
    )


def _ancilla_cut_warning(exp: ExperimentConfig) -> str | None:
    """Event-ready runs tensor the source with a two-photon EPR ancilla,
    and `fock.tensor` drops every term beyond the cutoff: name the
    smallest cutoff that keeps the pair whole when the configured one
    cuts it."""
    c = exp.config
    if exp.protocol != "event-ready" or not c.epr_enabled:
        return None
    orders = [int(v) for v in exp.sweep_values] if exp.sweep_parameter == "emission_order" else []
    order = max(orders or [c.source.emission_order])
    safe = 2 * order + 2
    if safe <= c.cutoff:
        return None
    return f"cutoff {c.cutoff} cuts the EPR ancilla at emission_order {order}; cutoff >= {safe} keeps it whole"


def _with_field(config, target: str, value):
    name, _, rest = target.partition(".")
    return replace(config, **{name: _with_field(getattr(config, name), rest, value) if rest else value})


def apply_sweep_value(config: ProtocolConfig, parameter: str, value: float) -> ProtocolConfig:
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter {parameter!r} must be one of {', '.join(SWEEP_PARAMETERS)}")
    kind, target = _FIELDS[parameter]
    if kind is int:
        if not float(value).is_integer():
            raise ConfigError(f"{parameter} sweep value {value} is not an integer")
        value = int(value)
    return _with_field(config, target, value)


# ---------------------------------------------------------------------------
# deterministic serialization


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("reports must not contain NaN or infinity")
    return format(x, ".17g")


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return json.dumps(f"{format_float(value.real)}{value.imag:+.17g}j")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_value(v, indent + 2)}" for v in value)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_value(v, indent + 2)}" for k, v in value.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise ValidationError(f"cannot serialize {type(value).__name__} in a report")


def to_json(report: dict) -> str:
    """Fixed-key-order JSON with 17-significant-digit floats (the byte
    stability the golden-file and determinism checks rely on)."""
    return _json_value(report, 0) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def to_csv(rows: list[dict]) -> str:
    """One header row plus one row per dict, using the same float
    formatting as the JSON reports."""
    if not rows:
        return "\n"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def config_echo(exp: ExperimentConfig) -> dict:
    echo: dict[str, object] = {"protocol": exp.protocol}
    for key, (kind, target) in _FIELDS.items():
        if key != "seed":
            value = reduce(getattr, target.split("."), exp.config)
            echo[key] = value if value is None else kind(value)
    return echo


# ---------------------------------------------------------------------------
# execution


def run_protocol(protocol: str, config: ProtocolConfig, chunk_map=map) -> dict:
    """Execute one protocol run and return its summary block; sampled
    trial chunks run through `chunk_map`."""
    if protocol == "generate":
        return protocols.generate_entanglement(config)[1]
    if protocol == "event-ready":
        return protocols.event_ready_generation(config, chunk_map)[1]
    if protocol == "memory":
        return protocols.memory_store(config, chunk_map=chunk_map)[1]
    raise ConfigError(f"unknown protocol {protocol!r}")


def run(exp: ExperimentConfig) -> dict:
    """Execute the experiment (single run or sweep) and assemble the
    full report; with more than one job, sampled trials run in a process
    pool of at most one worker per CPU."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "stokesim",
        "tool_version": __version__,
        "protocol": exp.protocol,
        "mode": exp.config.mode,
        "seed": exp.config.seed,
        "config": config_echo(exp),
    }
    pool = ProcessPoolExecutor(max_workers=min(exp.jobs, os.cpu_count() or 1)) if exp.jobs > 1 else None
    with pool or nullcontext():
        chunk_map = pool.map if pool else map
        if exp.sweep_parameter is None:
            report["summary"] = run_protocol(exp.protocol, exp.config, chunk_map)
            return report
        rows = []
        for value in exp.sweep_values:
            cfg = apply_sweep_value(exp.config, exp.sweep_parameter, value)
            row = {exp.sweep_parameter: value}
            row.update(run_protocol(exp.protocol, cfg, chunk_map))
            rows.append(row)
    report["sweep"] = {"parameter": exp.sweep_parameter, "values": list(exp.sweep_values)}
    report["rows"] = rows
    return report


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    rows = report.get("rows")
    if rows is None:
        rows = [dict(report["summary"])]
    return to_csv(rows)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesim",
        description="Exact and Monte Carlo simulation of heralded photon/atomic-ensemble entanglement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("generate", "post-selected source mixture and its branch weights"),
        ("event-ready", "heralded entanglement generation"),
        ("memory", "teleportation-based storage of a photonic qubit"),
        ("sweep", "run one protocol across a parameter grid"),
        ("validate", "parse and check a config file, run nothing"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="INI config path")
        p.add_argument("--seed", type=int, help="master seed (overrides config; env STOKESIM_SEED also works)")
        p.add_argument("--mode", choices=("exact", "sampled"), help="evaluation mode")
        p.add_argument("--trials", type=int, help="sampled-mode trial count")
        p.add_argument("--out", help="report path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes for sampled trials")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
            sections = parse_config(text)
        else:
            sections = {}
        overrides = {
            "seed": args.seed,
            "mode": args.mode,
            "trials": args.trials,
            "out": args.out,
            "format": args.format,
            "jobs": args.jobs,
        }
        command = target = args.command
        if command == "validate":
            if "sweep" in sections:
                target = "sweep"
            else:
                target = str(sections.get("run", {}).get("protocol", ExperimentConfig.protocol))
        exp = build_experiment(sections, target, overrides)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    warning = _ancilla_cut_warning(exp)
    if warning is not None:
        sys.stderr.write(f"warning: {warning}\n")
    if command == "validate":
        sys.stdout.write("config ok\n")
        for key, value in config_echo(exp).items():
            sys.stdout.write(f"{key} = {_csv_cell(value)}\n")
        return 0
    try:
        report = run(exp)
        _write_output(render(report, exp.format), exp.out)
    except (StokesimError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
