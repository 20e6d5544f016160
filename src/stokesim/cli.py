"""Command-line front end.

Commands `generate`, `event-ready`, `memory`, `sweep`, and `validate`
read a flat INI-style config (every key optional), run the protocol in
exact or sampled mode, and emit a machine-readable report as JSON or CSV.
All five take the same options, before or after the command; with the same
options and environment, a file that `validate` rejects fails every command.

The key table `_KEYS` gives each key its section, type, the field it sets
and the values it may take; the field's record holds its default and
range.  One converter, `_convert`, checks every value against it, whether
it comes from a config line, an item of `[sweep] values`, a flag or
`STOKESIM_SEED`, and its error names the key and where the value came
from.  The records check each value again for library callers; the rules
that join two keys stay in the records and in `build_experiment`.

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
from contextlib import nullcontext
from functools import reduce

from . import __version__, protocols
from .detection import DetectorSpec
from .errors import ConfigError, StokesimError, ValidationError
from .fock import Record
from .protocols import ProtocolConfig
from .sources import SourceParams

SCHEMA_VERSION = 1

#: key -> (its config section, or None for `jobs`, which only a flag sets; its type;
#: the `ExperimentConfig` field it sets, dotted into `config`; the values it may
#: take, where it names them).  The field's owner in `_OWNERS` states its range.
#: Each item of `[sweep] values` is a value of the key that `parameter` names.
_KEYS = {
    "protocol": ("run", str, "protocol", ("generate", "event-ready", "memory")),
    "mode": ("run", str, "config.mode", ProtocolConfig.MODES),
    "trials": ("run", int, "config.trials", ()),
    "seed": ("run", int, "config.seed", ()),
    "out": ("run", str, "out", ()),
    "format": ("run", str, "format", ("json", "csv")),
    "jobs": (None, int, "jobs", ()),
    "p0": ("source", float, "config.source.p0", ()),
    "alpha": ("source", complex, "config.source.alpha", ()),
    "beta": ("source", complex, "config.source.beta", ()),
    "t": ("source", float, "config.source.t", ()),
    "emission_order": ("source", int, "config.source.emission_order", ()),
    "cutoff": ("source", int, "config.cutoff", ()),
    "epr_enabled": ("source", bool, "config.epr_enabled", tuple(configparser.ConfigParser.BOOLEAN_STATES)),
    "eta": ("detector", float, "config.detector.efficiency", ()),
    "dark_prob": ("detector", float, "config.detector.dark_prob", ()),
    "theta": ("memory", float, "config.theta", ()),
    "phi": ("memory", float, "config.phi", ()),
    "retrieval_efficiency": ("memory", float, "config.retrieval_efficiency", ()),
    "parameter": ("sweep", str, "sweep_parameter", ("p0", "theta", "phi", "t", "eta", "dark_prob", "emission_order")),
    "values": ("sweep", tuple, "sweep_values", ()),
}


class ExperimentConfig(Record):
    """One command's experiment: the protocol, its config, the sweep and the report's form."""

    config: ProtocolConfig
    protocol: str = "event-ready"
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    out: str | None = None
    format: str = "json"
    jobs: int = 1

    _ranges = {"jobs": (1, math.inf, "[1, inf)")}

    def _validate(self):
        for key, value in ("protocol", self.protocol), ("format", self.format), ("parameter", self.sweep_parameter):
            if value not in _KEYS[key][3] and (key, value) != ("parameter", None):
                raise ValidationError(f"{key} {value!r} must be one of {', '.join(_KEYS[key][3])}")


#: target prefix -> the record that owns the fields under it and states their ranges
_OWNERS = {"config.source": SourceParams, "config.detector": DetectorSpec, "config": ProtocolConfig, "": ExperimentConfig}


def _line_map(text: str) -> dict[tuple[str, str | None], int]:
    """Map (section, key) -> 1-based line number, reading comments, headers,
    keys and indented continuation lines as `parse_config`'s parser does."""
    lines: dict[tuple[str, str | None], int] = {}
    section = key = indent = None
    for no, raw in enumerate(text.split("\n"), 1):
        s, level = re.split(r"(?<!\S)[#;]", raw, maxsplit=1)[0].strip(), len(raw) - len(raw.lstrip())
        if not s or key is not None and level > indent:
            continue
        if header := configparser.ConfigParser.SECTCRE.match(s):
            section, key = header["header"].lower(), None
            lines[(section, None)] = no
        elif section is not None and (option := configparser.ConfigParser.OPTCRE.match(s)):
            key, indent = option["option"].rstrip().lower(), level
            lines[(section, key)] = no
    return lines


def _convert(key: str, raw: str, origin: str, item: bool = False) -> object:
    """`raw`, which came `origin`, as a value of `key`: of the key's type, not
    empty, among its choices and in its field's range.  A sweep `item`, text
    or a number, of an int key may also be an integral decimal, such as 2.0,
    and becomes an int."""
    _, kind, target, choices = _KEYS[key]
    owner, _, name = target.rpartition(".")
    bounds = _OWNERS[owner]._ranges.get(name)
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        value = complex(raw.replace(" ", "")) if kind is complex else float(raw) if item else kind(raw)
        if item and kind is int:
            if not value.is_integer():
                raise ValueError
            value = int(value)
        if value == "" or choices and value not in choices:
            raise ValueError
        if bounds:
            _OWNERS[owner]._check_range(name, value)
        return value
    except (KeyError, ValueError):
        valid = (f" (one of {', '.join(choices)})" if choices else f" in {bounds[2]}" if bounds
                 else " (not empty)" if kind is str else "")
        raise ConfigError(f"bad value {str(raw)!r} for {key} {origin}: expected {kind.__name__}{valid}") from None


def _at(lines, section: str, key: str | None) -> str:
    no = lines.get((section, key))
    return f" (line {no})" if no else ""


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse and check the INI text into typed {section: {key: value}}, the
    one reading of a config file.  Values are read as written, so `%` is
    literal.  Every value is converted and checked, `[sweep]` included, and
    a value that a flag replaces too.  Unknown sections or keys, and a header
    that repeats another in another case, are errors that name their line."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="", interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    lines = _line_map(text)
    known = {s for s, *_ in _KEYS.values() if s}
    out: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        low = section.lower()
        if low in out:
            raise ConfigError(f"duplicate section [{section}]{_at(lines, low, None)}: section names ignore case")
        if low not in known:
            raise ConfigError(
                f"unknown section [{section}]{_at(lines, low, None)}; expected one of {', '.join(sorted(known))}"
            )
        out[low] = dict(parser.items(section))
        for key, raw in out[low].items():
            if _KEYS.get(key, (None,))[0] != low:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]{_at(lines, low, key)}; "
                    f"valid keys: {', '.join(sorted(k for k, (s, *_) in _KEYS.items() if s == low))}"
                )
            if key != "values":
                out[low][key] = _convert(key, raw, f"in [{low}]{_at(lines, low, key)}")
    if {"parameter", "values"} <= out.get("sweep", {}).keys():
        given, origin = out["sweep"], f"in [sweep] values{_at(lines, 'sweep', 'values')}"
        items = re.split(r"[,\s]+", given["values"])
        given["values"] = tuple(_convert(given["parameter"], item, origin, True) for item in items if item)
    return out


def build_experiment(
    sections: dict[str, dict[str, object]],
    command: str,
    overrides: dict[str, object],
) -> ExperimentConfig:
    """Merge command-line overrides over `STOKESIM_SEED` over the
    config-file sections over the record defaults into a validated
    experiment description.  The records check each value again, as they
    do for any caller; the seed of a sampled run, memory's cutoff and each
    sweep point are checked here, before a run of one protocol drops the sweep."""
    swept = command == "sweep"
    values = {key: value for keys in sections.values() for key, value in keys.items()}
    if (swept or "sweep" in sections) and not (values.get("parameter") and values.get("values")):
        raise ConfigError("sweep needs [sweep] parameter and values")
    if not swept and values.setdefault("protocol", command) != command:
        raise ConfigError(f"config names protocol {values['protocol']!r} but the {command!r} subcommand was invoked")
    env = os.environ.get("STOKESIM_SEED")
    if env is not None and overrides.get("seed") is None:
        values["seed"] = _convert("seed", env, "from STOKESIM_SEED")
    values.update((key, value) for key, value in overrides.items() if value is not None)
    if values.get("mode") == "sampled" and "seed" not in values:
        raise ConfigError("sampled mode requires a seed (flag --seed, STOKESIM_SEED, or [run] seed)")

    groups: dict[str, dict[str, object]] = {owner: {} for owner in _OWNERS}
    for key, value in values.items():
        owner, _, name = _KEYS[key][2].rpartition(".")
        groups[owner][name] = value
    try:
        parts = {"source": SourceParams(**groups["config.source"]), "detector": DetectorSpec(**groups["config.detector"])}
        exp = ExperimentConfig(config=ProtocolConfig(**parts, **groups["config"]), **groups[""])
        for value in exp.sweep_values:
            apply_sweep_value(exp.config, exp.sweep_parameter, value)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    if exp.protocol == "memory" and exp.config.cutoff < 3:
        raise ConfigError(f"memory needs cutoff >= 3 (channel plus input photon), got {exp.config.cutoff}")
    return exp if swept else exp.replace(sweep_parameter=None, sweep_values=())


def _ancilla_cut_warning(exp: ExperimentConfig) -> str | None:
    """Event-ready runs tensor the source with a two-photon EPR ancilla,
    and `fock.tensor` drops every term beyond the cutoff: name the
    smallest cutoff that keeps the pair whole when the configured one
    cuts it."""
    c = exp.config
    if exp.protocol != "event-ready" or not c.epr_enabled:
        return None
    orders = exp.sweep_values if exp.sweep_parameter == "emission_order" else []
    order = max(orders or [c.source.emission_order])
    safe = 2 * order + 2
    if safe <= c.cutoff:
        return None
    return f"cutoff {c.cutoff} cuts the EPR ancilla at emission_order {order}; cutoff >= {safe} keeps it whole"


def _with_field(config, target: str, value):
    name, _, rest = target.partition(".")
    return config.replace(**{name: _with_field(getattr(config, name), rest, value) if rest else value})


def apply_sweep_value(config: ProtocolConfig, parameter: str, value: float) -> ProtocolConfig:
    """`config` with the field that sweep `parameter` sets at `value`, checked
    as an item of `[sweep] values` is: an int field takes an integral value, as an int."""
    value = _convert(_convert("parameter", parameter, "of a sweep"), value, "in a sweep", True)
    return _with_field(config, _KEYS[parameter][2].partition(".")[2], value)


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
    formatting as the JSON reports.  `csv` is imported here, so a JSON
    run never loads it."""
    import csv

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
    for key, (_, kind, target, _) in _KEYS.items():
        if target.startswith("config.") and key != "seed":
            value = reduce(getattr, target.split("."), exp)
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
        return protocols.event_ready_generation(config, chunk_map, with_state=False)[1]
    if protocol == "memory":
        return protocols.memory_store(config, chunk_map=chunk_map)[1]
    raise ConfigError(f"unknown protocol {protocol!r}")


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported when a pool first needs it; one set on the module wins."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return globals().setdefault(name, ProcessPoolExecutor)


def run(exp: ExperimentConfig) -> dict:
    """Execute the experiment (single run or sweep) and assemble the
    full report; with more than one job, the trials of sampled
    `event-ready` and `memory` runs, the only ones mapped in chunks, go to
    a process pool of at most one worker per CPU."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "stokesim",
        "tool_version": __version__,
        "protocol": exp.protocol,
        "mode": exp.config.mode,
        "seed": exp.config.seed,
        "config": config_echo(exp),
    }
    pooled = exp.jobs > 1 and exp.config.mode == "sampled" and exp.protocol != "generate"
    pool = __getattr__("ProcessPoolExecutor")(max_workers=min(exp.jobs, os.cpu_count() or 1)) if pooled else None
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
    parser.add_argument(
        "command",
        choices=(*_KEYS["protocol"][3], "sweep", "validate"),
        help="run one protocol, sweep one across a parameter grid, or validate a config and run nothing",
    )
    parser.add_argument("--config", help="INI config path")
    parser.add_argument("--seed", help="master seed (overrides config; env STOKESIM_SEED also works)")
    parser.add_argument("--mode", help="evaluation mode: exact or sampled")
    parser.add_argument("--trials", help="sampled-mode trial count")
    parser.add_argument("--out", help="report path (default stdout)")
    parser.add_argument("--format", help="report format: json (default) or csv")
    parser.add_argument("--jobs", help="parallel worker processes for sampled trials (default 1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = target = args.command
    try:
        overrides = {key: _convert(key, value, f"from --{key}") for key, value in vars(args).items() if key in _KEYS and value is not None}
        sections = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
            sections = parse_config(text)
        if command == "validate":
            target = "sweep" if "sweep" in sections else sections.get("run", {}).get("protocol", ExperimentConfig.protocol)
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
