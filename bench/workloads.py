"""The benchmark's three workloads: seeded input generation and the
correctness check each CLI report must pass.

Every workload is one `stokesim` command.  Inputs (INI config, sweep
grid, per-invocation CLI seeds) come from the workload seed alone, and
every generated value lies inside the range the config schema documents.
Checks never compare against stored bytes; they test physics that holds
for any correct program:

* sampled runs: the success count lies within 5 sigma of the herald
  probability computed here, independently of the sampler, from
  `exact_outcome_distribution`, `DetectorSpec.click_prob` and
  `default_herald_rule`;
* the exact multi-pair sweep: the heralded-fidelity deficit rises
  strictly with p0 and never exceeds p0 (acceptance criterion 7).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

#: sigma multiple allowed between a sampled success count and its expectation
SAMPLED_SIGMAS = 5.0
#: smallest binomial variance n*p*(1-p) at which the 5-sigma test is used;
#: tiny runs (the 1-trial set-up runs) get the structural checks only
MIN_VARIANCE = 9.0
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sampled" (size counts trials) or "exact" (size counts sweep points)
    mode: str
    #: work per measured invocation, sized for about 2.5 s on 2 cores
    size: int
    #: work per traced invocation (spans stay in memory, so smaller)
    trace_size: int
    #: the traced run adds a `--jobs 2` command to time the process pool;
    #: measured commands are always serial
    trace_pool: bool = False

    @property
    def unit(self) -> str:
        return "trials" if self.mode == "sampled" else "points"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("herald-sampled", "sampled", size=80_000, trace_size=20_000),
        Workload("memory-lossy", "sampled", size=75_000, trace_size=20_000, trace_pool=True),
        Workload("multipair-exact", "exact", size=24, trace_size=10),
    )
}

# Fixed physics of each workload.  Only seeds and sweep grids vary.
_HERALD = {"p0": 0.01, "eta": 1.0, "dark_prob": 1e-5}
_MEMORY = {"theta": 0.7, "phi": 1.9, "eta": 0.8, "dark_prob": 1e-3}
_MULTIPAIR = {"emission_order": 5, "cutoff": 12, "p0_range": (0.002, 0.2)}


class Inputs:
    """Everything one benchmark run feeds the program, derived from the
    workload seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.workdir = workdir
        self.grid: list[float] = []
        if workload.name == "multipair-exact":
            lo, hi = _MULTIPAIR["p0_range"]
            self.grid = _stratified(self.rng, lo, hi, workload.size)
        self._configs: dict[int, Path] = {}

    def next_seed(self) -> int:
        return self.rng.randrange(1, 2**63)

    def config(self, size: int) -> Path:
        """INI file for an invocation of `size` trials or sweep points."""
        path = self._configs.get(size)
        if path is None:
            path = self.workdir / f"{self.workload.name}-{size}.ini"
            path.write_text(_config_text(self.workload, self.points(size)), encoding="utf-8")
            self._configs[size] = path
        return path

    def points(self, size: int) -> list[float]:
        """The first `size` grid values, in ascending order (exact only)."""
        return sorted(self.grid[:size]) if self.grid else []

    def argv(self, size: int, out: Path, jobs: int = 1) -> list[str]:
        """CLI arguments for one invocation at `size`."""
        w = self.workload
        cfg = str(self.config(size))
        if w.mode == "exact":
            return ["sweep", "--config", cfg, "--out", str(out)]
        command = "event-ready" if w.name == "herald-sampled" else "memory"
        return [
            command, "--config", cfg, "--out", str(out),
            "--seed", str(self.next_seed()), "--trials", str(size),
            "--jobs", str(jobs),
        ]


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n values, one per equal bin of [lo, hi], each jittered within the
    middle half of its bin so neighbours stay at least half a bin apart.
    The list is shuffled so any prefix still spans the whole range."""
    width = (hi - lo) / n
    values = [min(hi, lo + (i + 0.5 + rng.uniform(-0.25, 0.25)) * width) for i in range(n)]
    rng.shuffle(values)
    return values


def _config_text(w: Workload, points: list[float]) -> str:
    # repr() keeps every digit, so a value drawn inside its range is parsed
    # back as itself and never rounds past the range end.
    values = ", ".join(repr(v) for v in points)
    if w.name == "herald-sampled":
        return (
            "[run]\nprotocol = event-ready\nmode = sampled\n\n"
            f"[source]\np0 = {_HERALD['p0']!r}\n\n"
            f"[detector]\neta = {_HERALD['eta']!r}\ndark_prob = {_HERALD['dark_prob']!r}\n"
        )
    if w.name == "memory-lossy":
        return (
            "[run]\nprotocol = memory\nmode = sampled\n\n"
            f"[memory]\ntheta = {_MEMORY['theta']!r}\nphi = {_MEMORY['phi']!r}\n\n"
            f"[detector]\neta = {_MEMORY['eta']!r}\ndark_prob = {_MEMORY['dark_prob']!r}\n"
        )
    return (
        "[run]\nprotocol = event-ready\nmode = exact\n\n"
        f"[source]\nemission_order = {_MULTIPAIR['emission_order']}\n"
        f"cutoff = {_MULTIPAIR['cutoff']}\n\n"
        "[detector]\neta = 1.0\ndark_prob = 0.0\n\n"
        f"[sweep]\nparameter = p0\nvalues = {values}\n"
    )


# ---------------------------------------------------------------------------
# expected herald probability, independent of the sampler


def herald_probability(workload: Workload) -> float:
    """Probability that one sampled trial heralds, summed over the exact
    photon-number distribution at the four analyzer detectors and the
    detector click model, for the heralding click sets of the default
    rule."""
    from stokesim import detection, elements, fock, protocols, sources
    from stokesim.detection import FAIL, DetectorSpec

    if workload.name == "herald-sampled":
        joint = fock.tensor(
            sources.dual_ensemble_source(sources.SourceParams(p0=_HERALD["p0"])),
            sources.epr_pair("A", "B"),
        )
        path_1, path_2 = "p", "A"
        spec = DetectorSpec(efficiency=_HERALD["eta"], dark_prob=_HERALD["dark_prob"])
    elif workload.name == "memory-lossy":
        joint = fock.tensor(
            protocols.ideal_channel(), protocols.input_qubit(_MEMORY["theta"], _MEMORY["phi"])
        )
        path_1, path_2 = "q", "B"
        spec = DetectorSpec(efficiency=_MEMORY["eta"], dark_prob=_MEMORY["dark_prob"])
    else:
        raise ValueError(f"{workload.name} is not a sampled workload")

    # the analyzer's optics: a balanced beam splitter, then a polarizing
    # splitter per output; path_1 feeds D_H/D_V, path_2 feeds D_H'/D_V'
    st = elements.beam_splitter(joint, path_1, path_2)
    st, out_1h, out_1v = elements.pol_splitter(st, path_1)
    st, out_2h, out_2v = elements.pol_splitter(st, path_2)
    modes = [f"{out_1h}:H", f"{out_1v}:V", f"{out_2h}:H", f"{out_2v}:V"]
    labels = [detection.D_H, detection.D_V, detection.D_HP, detection.D_VP]
    dist = detection.exact_outcome_distribution(st, modes)

    total = 0.0
    for clicks, outcome in detection.default_herald_rule().patterns:
        if outcome == FAIL:
            continue
        for occ, p in dist:
            for n, label in zip(occ, labels):
                q = spec.click_prob(n)
                p *= q if label in clicks else 1.0 - q
            total += p
    return total


# ---------------------------------------------------------------------------
# report checks


def check_report(inputs: Inputs, size: int, report: dict, expected_p: float | None) -> list[str]:
    """Problems found in one CLI report (empty when it is correct)."""
    w = inputs.workload
    problems: list[str] = []
    if report.get("mode") != w.mode:
        problems.append(f"report mode {report.get('mode')!r}, expected {w.mode!r}")
    if w.mode == "sampled":
        problems += _check_sampled(report.get("summary") or {}, size, expected_p)
    else:
        problems += _check_sweep(inputs, size, report)
    return problems


def _num(x) -> float | None:
    """A report number as float; reports print 1.0 as `1`, which parses as int."""
    return float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else None


def _check_sampled(summary: dict, trials: int, p: float | None) -> list[str]:
    problems = []
    n = summary.get("trials")
    k = summary.get("success_count")
    if n != trials:
        return [f"report has {n} trials, asked for {trials}"]
    if not isinstance(k, int) or k != summary.get("psi_minus_count", -1) + summary.get("psi_plus_count", -1):
        return [f"success_count {k} is not the sum of the two herald counts"]
    fid = _num(next((v for key, v in summary.items() if key.startswith("mean_") and key.endswith("_fidelity")), None))
    if k and not (fid is not None and 0.0 <= fid <= 1.0 + EXACT_TOL):
        problems.append(f"mean fidelity {fid!r} outside [0, 1]")
    if p is not None:
        variance = trials * p * (1.0 - p)
        if variance >= MIN_VARIANCE:
            z = (k - trials * p) / math.sqrt(variance)
            if abs(z) > SAMPLED_SIGMAS:
                problems.append(
                    f"{k}/{trials} heralds is {z:+.1f} sigma from the exact herald probability {p:.6g}"
                )
    return problems


def _check_sweep(inputs: Inputs, size: int, report: dict) -> list[str]:
    grid = inputs.points(size)
    rows = report.get("rows") or []
    if [row.get("p0") for row in rows] != grid:
        return [f"report rows do not echo the {size} generated p0 values"]
    deficits = []
    for row in rows:
        fid = _num(row.get("heralded_fidelity"))
        if fid is None or not (_num(row.get("success_probability")) or 0.0) > 0.0:
            return [f"p0={row['p0']!r}: no heralded fidelity"]
        deficits.append(1.0 - fid)
    problems = []
    for p0, d in zip(grid, deficits):
        if not 0.0 <= d <= p0:
            problems.append(f"p0={p0!r}: fidelity deficit {d!r} outside [0, p0]")
    for (p_lo, d_lo), (p_hi, d_hi) in zip(zip(grid, deficits), zip(grid[1:], deficits[1:])):
        if not d_hi > d_lo:
            problems.append(f"deficit not rising from p0={p_lo!r} ({d_lo!r}) to {p_hi!r} ({d_hi!r})")
    return problems
