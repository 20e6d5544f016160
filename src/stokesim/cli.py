"""Command-line front end.

Subcommands `generate`, `event-ready`, `memory`, `sweep`, and `validate`
read a flat INI-style config (every key optional, defaults documented in
the schema below), run the protocol in exact or sampled mode, and emit a
machine-readable report as JSON or CSV.

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
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

from . import __version__, protocols
from .detection import DetectorSpec
from .errors import ConfigError, StokesimError, ValidationError
from .protocols import ProtocolConfig
from .sources import SourceParams

SCHEMA_VERSION = 1

SWEEP_PARAMETERS = ("p0", "theta", "phi", "t", "eta", "dark_prob", "emission_order")

#: section -> key -> (type, range description)
_SCHEMA = {
    "run": {
        "protocol": (str, "one of generate, event-ready, memory"),
        "mode": (str, "exact or sampled"),
        "trials": (int, ">= 1"),
        "seed": (int, "[0, 2^64)"),
        "out": (str, "output path"),
        "format": (str, "json or csv"),
    },
    "source": {
        "p0": (float, "[0, 0.2]"),
        "alpha": (complex, "|alpha|^2 + |beta|^2 = 1"),
        "beta": (complex, "|alpha|^2 + |beta|^2 = 1"),
        "t": (float, "[0, 1]"),
        "emission_order": (int, ">= 1"),
        "cutoff": (int, ">= 2 * emission_order"),
        "epr_enabled": (bool, "true or false"),
    },
    "detector": {
        "eta": (float, "[0, 1]"),
        "dark_prob": (float, "[0, 1)"),
    },
    "memory": {
        "theta": (float, "[0, pi]"),
        "phi": (float, "[0, 2*pi)"),
        "retrieval_efficiency": (float, "[0, 1]"),
    },
    "sweep": {
        "parameter": (str, f"one of {', '.join(SWEEP_PARAMETERS)}"),
        "values": (str, "comma- or space-separated numbers"),
    },
}

_PROTOCOLS = ("generate", "event-ready", "memory")


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    config: ProtocolConfig
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
    kind, valid = _SCHEMA[section][key]
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
    """Merge config-file sections with command-line overrides into a
    validated experiment description."""
    run = dict(sections.get("run", {}))
    src = dict(sections.get("source", {}))
    det = dict(sections.get("detector", {}))
    mem = dict(sections.get("memory", {}))
    swp = dict(sections.get("sweep", {}))

    protocol = command if command != "sweep" else str(run.get("protocol", "event-ready"))
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"protocol {protocol!r} must be one of {', '.join(_PROTOCOLS)}")
    if command != "sweep" and "protocol" in run and run["protocol"] != command:
        raise ConfigError(f"config names protocol {run['protocol']!r} but the {command!r} subcommand was invoked")

    mode = str(overrides.get("mode") or run.get("mode", "exact"))
    trials = int(overrides["trials"] if overrides.get("trials") is not None else run.get("trials", 10_000))

    seed = overrides.get("seed")
    if seed is None:
        env = os.environ.get("STOKESIM_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"STOKESIM_SEED={env!r} is not an integer") from None
    if seed is None:
        seed = run.get("seed")
    if seed is None:
        if mode == "sampled":
            raise ConfigError("sampled mode requires a seed (flag --seed, STOKESIM_SEED, or [run] seed)")
        seed = 0

    try:
        source = SourceParams(
            p0=float(src.get("p0", 0.01)),
            emission_order=int(src.get("emission_order", 1)),
            alpha=src.get("alpha", SourceParams.alpha),
            beta=src.get("beta", SourceParams.beta),
            t=float(src["t"]) if "t" in src else None,
        )
        detector = DetectorSpec(
            efficiency=float(det.get("eta", 1.0)),
            dark_prob=float(det.get("dark_prob", 1e-5)),
        )
        config = ProtocolConfig(
            source=source,
            detector=detector,
            trials=trials,
            mode=mode,
            seed=int(seed),
            theta=float(mem.get("theta", 0.0)),
            phi=float(mem.get("phi", 0.0)),
            epr_enabled=bool(src.get("epr_enabled", True)),
            retrieval_efficiency=float(mem.get("retrieval_efficiency", 1.0)),
            cutoff=int(src.get("cutoff", 6)),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None

    sweep_parameter = None
    sweep_values: tuple[float, ...] = ()
    if command == "sweep":
        if "parameter" not in swp or "values" not in swp:
            raise ConfigError("sweep needs [sweep] parameter and values")
        sweep_parameter = str(swp["parameter"])
        if sweep_parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter {sweep_parameter!r} must be one of {', '.join(SWEEP_PARAMETERS)}"
            )
        sweep_values = _parse_values(str(swp["values"]))
        try:
            for value in sweep_values:
                apply_sweep_value(config, sweep_parameter, value)
        except ValidationError as exc:
            raise ConfigError(f"sweep {sweep_parameter} = {value:g}: {exc}") from None

    fmt = str(overrides.get("format") or run.get("format", "json"))
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format {fmt!r} must be json or csv")
    out = overrides.get("out") or run.get("out")
    jobs = overrides.get("jobs")
    jobs = 1 if jobs is None else int(jobs)
    if jobs < 1:
        raise ConfigError(f"--jobs {jobs} must be >= 1")
    return ExperimentConfig(
        protocol=protocol,
        config=config,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        out=str(out) if out is not None else None,
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


def apply_sweep_value(config: ProtocolConfig, parameter: str, value: float) -> ProtocolConfig:
    if parameter == "p0":
        return replace(config, source=replace(config.source, p0=value))
    if parameter == "t":
        return replace(config, source=replace(config.source, t=value))
    if parameter == "emission_order":
        if value != int(value):
            raise ConfigError(f"emission_order sweep value {value} is not an integer")
        return replace(config, source=replace(config.source, emission_order=int(value)))
    if parameter == "eta":
        return replace(config, detector=replace(config.detector, efficiency=value))
    if parameter == "dark_prob":
        return replace(config, detector=replace(config.detector, dark_prob=value))
    if parameter == "theta":
        return replace(config, theta=value)
    if parameter == "phi":
        return replace(config, phi=value)
    raise ConfigError(f"unknown sweep parameter {parameter!r}")


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
    import csv as _csv

    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def config_echo(exp: ExperimentConfig) -> dict:
    c = exp.config
    return {
        "protocol": exp.protocol,
        "mode": c.mode,
        "trials": c.trials,
        "p0": c.source.p0,
        "alpha": complex(c.source.alpha),
        "beta": complex(c.source.beta),
        "t": c.source.t,
        "emission_order": c.source.emission_order,
        "cutoff": c.cutoff,
        "epr_enabled": c.epr_enabled,
        "eta": c.detector.efficiency,
        "dark_prob": c.detector.dark_prob,
        "theta": c.theta,
        "phi": c.phi,
        "retrieval_efficiency": c.retrieval_efficiency,
    }


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
                target = str(sections.get("run", {}).get("protocol", "event-ready"))
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
    except StokesimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
