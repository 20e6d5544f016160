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

import gc
import io
import math
import os
import re
import sys
from contextlib import nullcontext
from functools import reduce

from . import __version__, protocols
from .detection import DetectorSpec
from .errors import ConfigError, StokesimError, ValidationError
from .fock import DENSE_DIM_BOUND, LOSS, Record
from .protocols import ProtocolConfig
from .sources import SourceParams, dual_ensemble_source

SCHEMA_VERSION = 2

#: `epr_enabled`'s spellings, in the order its error lists them
_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True, "0": False, "no": False, "false": False, "off": False}

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
    "epr_enabled": ("source", bool, "config.epr_enabled", tuple(_BOOLEANS)),
    "eta": ("detector", float, "config.detector.efficiency", ()),
    "dark_prob": ("detector", float, "config.detector.dark_prob", ()),
    "theta": ("memory", float, "config.theta", ()),
    "phi": ("memory", float, "config.phi", ()),
    "retrieval_efficiency": ("memory", float, "config.retrieval_efficiency", ()),
    "parameter": ("sweep", str, "sweep_parameter", ("p0", "theta", "phi", "t", "eta", "dark_prob", "emission_order")),
    "values": ("sweep", tuple, "sweep_values", ()),
}


#: protocol -> the sweep parameters it reads; a sweep over another one is a config error
_SWEEPS = {"generate": ("p0", "t", "emission_order"), "memory": ("theta", "phi", "eta", "dark_prob")}
_SWEEPS["event-ready"] = (*_SWEEPS["generate"], "eta", "dark_prob")


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


def _read_ini(text: str) -> dict[str, tuple[int, dict[str, tuple[int, str]]]]:
    """{header as written: (its line, {lower-cased key: (its line, its value)})} of INI `text`,
    read as configparser read it with `=` and `:` delimiters, `#` and `;` comments, inline ones after
    whitespace, and continuation lines, blank ones included, indented deeper than their key.  A header
    or key read twice, a key before any header, a line that is neither and, unlike configparser, text
    after a header's closing `]` are syntax errors."""
    sections, errors, keys, key, indent = {}, "", None, None, 0
    repeat = "config syntax error: While reading from '<string>' [line {:2d}]: {} already exists"
    for no, line in enumerate(io.StringIO(text), 1):
        cut, at = [], {"#": -1, ";": -1}
        while at and not cut:  # configparser steps through the prefixes' occurrences in turn
            at = {p: i for p, j in at.items() if (i := line.find(p, j + 1)) >= 0}
            cut = [i for i in at.values() if i == 0 or line[i - 1].isspace()]
        cut = 0 if line.strip()[:1] in ("#", ";") else min(cut, default=None)
        value, level = line[:cut].strip(), len(line) - len(line.lstrip())
        if not value or key and level > indent:
            if value or cut is None and key:
                keys[key][1].append(value)
            continue
        indent, end, delim = level, value.rfind("]"), min((i for i in map(value.find, "=:") if i >= 0), default=-1)
        if value[0] == "[" and end > 1:
            name, key = value[1:end], None
            if tail := value[end + 1 :].strip():
                raise ConfigError(f"config syntax error: text {tail!r} after header [{name}] (line {no}); a header stands alone on its line")
            if name in sections:
                raise ConfigError(repeat.format(no, f"section {name!r}"))
            sections[name] = no, (keys := {})
            continue
        if keys is None:
            raise ConfigError(f"config syntax error: File contains no section headers.\nfile: '<string>', line: {no}\n{line!r}")
        if delim < 1:  # no delimiter, or no key before it
            errors += f"\n\t[line {no:2d}]: {line!r}"
        if delim >= 0:
            if (key := value[:delim].rstrip().lower()) in keys:
                raise ConfigError(repeat.format(no, f"option {key!r} in section {name!r}"))
            keys[key] = no, [value[delim + 1 :].strip()]
    if errors:
        raise ConfigError(f"config syntax error: Source contains parsing errors: '<string>'{errors}")
    return {name: (no, {key: (at, "\n".join(lines).rstrip()) for key, (at, lines) in keys.items()}) for name, (no, keys) in sections.items()}


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
            return _BOOLEANS[raw.strip().lower()]
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


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse and check the INI text into typed {section: {key: value}}, the
    one reading of a config file.  Values are read as written, so `%` is
    literal.  Every value is converted and checked, `[sweep]` included, and
    a value that a flag replaces too.  Unknown sections or keys, and a header
    that repeats another in another case, are errors that name their line."""
    known = {s for s, *_ in _KEYS.values() if s}
    out: dict[str, dict[str, object]] = {}
    for section, (no, keys) in _read_ini(text).items():
        low = section.lower()
        if low in out:
            raise ConfigError(f"duplicate section [{section}] (line {no}): section names ignore case")
        if low not in known:
            raise ConfigError(f"unknown section [{section}] (line {no}); expected one of {', '.join(sorted(known))}")
        out[low] = {}
        for key, (no, raw) in keys.items():
            if _KEYS.get(key, (None,))[0] != low:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (line {no}); "
                    f"valid keys: {', '.join(sorted(k for k, (s, *_) in _KEYS.items() if s == low))}"
                )
            if key == "values":
                out[low][key], items = raw, f"in [sweep] values (line {no})"
            else:
                out[low][key] = _convert(key, raw, f"in [{low}] (line {no})")
    if {"parameter", "values"} <= out.get("sweep", {}).keys():
        given = out["sweep"]
        given["values"] = tuple(_convert(given["parameter"], item, items, True) for item in re.split(r"[,\s]+", given["values"]) if item)
    return out


def build_experiment(
    sections: dict[str, dict[str, object]],
    command: str,
    overrides: dict[str, object],
) -> ExperimentConfig:
    """Merge command-line overrides over `STOKESIM_SEED` over the
    config-file sections over the record defaults into a validated
    experiment description.  The records check each value again, as they
    do for any caller; the seed of a sampled run, memory's cutoff, each sweep
    point and the swept parameter are checked here, before a run of one
    protocol drops the sweep, and so is the size of the dense matrix that
    `generate` builds at each point it runs."""
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
        points = [apply_sweep_value(exp.config, exp.sweep_parameter, value) for value in exp.sweep_values]
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    if exp.sweep_parameter not in (None, *_SWEEPS[exp.protocol]):
        raise ConfigError(f"{exp.protocol} does not read {exp.sweep_parameter}: it sweeps {', '.join(_SWEEPS[exp.protocol])}")
    if exp.protocol == "memory" and exp.config.cutoff < 3:
        raise ConfigError(f"memory needs cutoff >= 3 (channel plus input photon), got {exp.config.cutoff}")
    for value, config in zip(exp.sweep_values, points) if swept else [(None, exp.config)]:
        if exp.protocol == "generate" and (dim := _dense_dimension(config)) > DENSE_DIM_BOUND:
            at = f" at {exp.sweep_parameter} = {value}" if swept else ""
            raise ConfigError(f"generate{at} keeps a subspace of dimension {dim}, above the dense bound {DENSE_DIM_BOUND}; lower emission_order")
    return exp if swept else exp.replace(sweep_parameter=None, sweep_values=())


def _dense_dimension(config: ProtocolConfig) -> int:
    """The dimension of the dense matrix that `generate` builds on `config`'s
    source: its distinct occupation patterns on the modes that are not loss modes."""
    src = dual_ensemble_source(config.source, config.cutoff)
    keep = [i for i, m in enumerate(src.registry.modes) if m.kind != LOSS]
    return len({tuple(occ[i] for i in keep) for occ in src.amplitudes})


def _ancilla_cut_warning(exp: ExperimentConfig) -> str | None:
    """Event-ready runs tensor the source with a two-photon EPR ancilla,
    and `fock.tensor` drops every term beyond the cutoff: name the
    smallest cutoff that keeps the pair whole when the configured one
    cuts it.  A report's `cutoff_loss` gives the weight cut, but
    `validate` writes no report, and the number does not name the cure."""
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


def _json_str(s: str) -> str:
    """`json.dumps(s)` of a report string, a key, a choice or a formatted number: printable
    ASCII without `"` or `\\`, which it writes as it is.  Any other string is refused."""
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        raise ValidationError(f"cannot write {s!r} in a report")
    return f'"{s}"'


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
        return _json_str(f"{format_float(value.real)}{value.imag:+.17g}j")
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_value(v, indent + 2)}" for v in value)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_json_str(str(k))}: {_json_value(v, indent + 2)}" for k, v in value.items()
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
    """One header row plus one row per dict, using the same float formatting as the JSON reports,
    written as `csv.writer` writes cells that need no quotes: no report cell or column name holds
    `,`, `"`, CR or LF, and no report row is one empty cell.  Any other row is refused."""
    if not rows:
        return "\n"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(cells) for cells in (columns, *([_csv_cell(row.get(c)) for c in columns] for row in rows))]
    for line in lines:
        if not line or line.count(",") >= len(columns) or re.search('["\r\n]', line):
            raise ValidationError(f"cannot write {line!r} in a report")
    return "".join(line + "\n" for line in lines)


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
        from .analysis import generate_entanglement
        return generate_entanglement(config)[1]
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


#: option -> its help; every command takes all seven, before or after it
_OPTIONS = {
    "config": "INI config path",
    "seed": "master seed (overrides config; env STOKESIM_SEED also works)",
    "mode": "evaluation mode: exact or sampled",
    "trials": "sampled-mode trial count",
    "out": "report path (default stdout)",
    "format": "report format: json (default) or csv",
    "jobs": "parallel worker processes for sampled trials (default 1)",
}
_COMMANDS = (*_KEYS["protocol"][3], "sweep", "validate")
_USAGE = """usage: stokesim [-h] [--config CONFIG] [--seed SEED] [--mode MODE]
                [--trials TRIALS] [--out OUT] [--format FORMAT] [--jobs JOBS]
                {generate,event-ready,memory,sweep,validate}
"""


def _parse_args(argv: list[str]) -> dict[str, str | None]:
    """The command and the options of `argv`, read as `argparse` read them: before or after the
    command, as `--opt value` or `--opt=value`, under any unique prefix; after the first `--`,
    every word is a value.  `-h`/`--help` (or `-hh`) prints the help and exits 0; a usage error
    prints the usage and argparse's message and exits 2."""
    def fail(message: str):
        sys.stderr.write(f"{_USAGE}stokesim: error: {message}\n")
        raise SystemExit(2)

    def option(arg: str) -> tuple[str, str | None] | None:  # (name, value after "="): "" names no option; None for a value
        name, eq, value = arg.partition("=")
        if arg[:2] == "-h":  # more h flags, or a value, may follow it
            glued = None if arg == "-h" else arg[2 + (name == "-h"):]
            return "help", glued.lstrip("h") or None if glued else glued
        known = [key for key in ("help", *_OPTIONS) if arg[:2] == "--" and f"--{key}".startswith(name)]
        if known or arg[:1] == "-" != arg and " " not in arg and not re.fullmatch(r"-\d+|-\d*\.\d+", arg):
            return (known[0], value if eq else None) if known else ("", None)
        return None

    for arg in argv[: argv.index("--") if "--" in argv else None]:
        if arg[:3] == "--=":  # a prefix of every option
            fail(f"ambiguous option: {arg} could match {', '.join(f'--{key}' for key in ('help', *_OPTIONS))}")
    args, extras, words, free, after = dict.fromkeys(("command", *_OPTIONS)), [], argv[::-1], False, -1
    while words:
        arg = words.pop()
        if arg == "--" and not free:
            free = True
            if args["command"] is None or len(words) == after:  # not before or right after the command, it is an extra
                continue
        name, value = (None if free else option(arg)) or (None, None)
        if name == "help":
            if value is not None:
                fail(f"argument -h/--help: ignored explicit argument {value!r}")
            rows = {"command": "run one protocol, sweep one across a parameter grid, or validate a config and run nothing",
                    "-h, --help": "show this help message and exit", **{f"--{key} {key.upper()}": text for key, text in _OPTIONS.items()}}
            sys.stdout.write(_USAGE + "".join(f"  {row:<17}  {text}\n" for row, text in rows.items()))
            raise SystemExit(0)
        if name:
            if value is None and (not words or option(words[-1])):
                fail(f"argument --{name}: expected one argument")
            args[name] = words.pop() if value is None else value
        elif name is None and args["command"] is None:
            if arg not in _COMMANDS:
                fail(f"argument command: invalid choice: {arg!r} (choose from {', '.join(map(repr, _COMMANDS))})")
            args["command"], after = arg, len(words) - 1
        else:
            extras.append(arg)
    if args["command"] is None:
        fail("the following arguments are required: command")
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command and return its exit code.  As the process's own command line (no `argv`), it
    runs with the cyclic collector off and freezes every object on the way out, for the shutdown collections to skip."""
    if argv is not None:
        return _command(argv)
    gc.disable()
    try:
        return _command(sys.argv[1:])
    finally:
        gc.freeze()


def _command(argv: list[str]) -> int:
    args = _parse_args(argv)
    command = target = args["command"]
    try:
        overrides = {key: _convert(key, value, f"from --{key}") for key, value in args.items() if key in _KEYS and value is not None}
        sections = {}
        if args["config"] is not None:
            try:
                with open(args["config"], encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args['config']!r}: {exc}") from None
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
