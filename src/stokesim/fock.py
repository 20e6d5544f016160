"""Sparse second-quantized state representation.

States live in a truncated multimode Fock space.  A :class:`PureState` is a
sparse map from occupation-number tuples to complex amplitudes; a
:class:`MixedState` is a weighted ensemble of pure states.  Modes are declared
up front in a :class:`ModeRegistry` (photonic path/polarization modes, one
collective bosonic mode per atomic ensemble, and loss modes used to dilate
attenuation), and the basis ordering follows registration order so that
serialized states are stable.

Everything here is immutable after construction: operations return new
states and may return new registries (polarization relabelings, appended
loss modes), never mutate their inputs.
"""

from __future__ import annotations

import cmath
import math
import operator
import struct
from collections import defaultdict
from collections.abc import Mapping, Sequence
from functools import lru_cache

from .errors import RegistryError, ValidationError

PHOTONIC = "photonic"
ATOMIC = "atomic"
LOSS = "loss"

CIRCULAR_POLS = ("R", "L")
LINEAR_POLS = ("H", "V")

#: amplitudes below this magnitude are dropped from sparse maps
AMPLITUDE_EPS = 1e-14

#: default global excitation cutoff (largest protocol state: a second-order
#: double emission plus an ancilla photon pair carries six excitations)
DEFAULT_CUTOFF = 6


class Record:
    """Immutable value: the class annotations, in order, are its fields and
    class attributes their defaults.  Construction and `replace` check each
    set field against its interval in `_ranges` (NaN lies outside), then
    run `_validate`.  A record equals only records of its own type, hashes
    by its field values in order, and pickles through `__dict__`."""

    _ranges = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
            raise TypeError(f"{cls.__name__}{names}: too many positional arguments, or a field given twice")
        kwargs.update(zip(names, args))
        try:
            values = {k: kwargs[k] if k in kwargs else getattr(cls, k) for k in names}
        except AttributeError as exc:
            raise TypeError(f"{cls.__name__}{names}: missing field {exc.name!r}") from None
        if not kwargs.keys() <= values.keys():
            raise TypeError(f"{cls.__name__}{names}: unknown fields {sorted(kwargs.keys() - values.keys())}")
        self.__dict__.update(values)
        for name in cls._ranges:
            cls._check_range(name, values[name])
        self._validate()

    @classmethod
    def _check_range(cls, name: str, value) -> None:
        """Raise unless `value` lies in field `name`'s interval in `_ranges`."""
        low, high, text = cls._ranges[name]
        above = value is None or (low < value if text[0] == "(" else low <= value)
        below = value is None or (value < high if text[-1] == ")" else value <= high)
        if not (above and below):
            raise ValidationError(f"{name}={value} outside {text}")

    def _validate(self):
        """Raise on invalid values of fields taken together."""

    def replace(self, **changes):
        return type(self)(**{**self.__dict__, **changes})

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self.__dict__.items())})"


class ModeId(Record):
    """One bosonic mode: a photonic path/polarization slot, a collective
    atomic mode, or a loss mode."""

    name: str
    kind: str
    path: str | None = None
    pol: str | None = None

    def _validate(self):
        if self.kind not in (PHOTONIC, ATOMIC, LOSS):
            raise RegistryError(f"unknown mode kind {self.kind!r}")
        if self.kind == PHOTONIC:
            if self.path is None or self.pol not in CIRCULAR_POLS + LINEAR_POLS:
                raise RegistryError(f"photonic mode {self.name!r} needs a path and a polarization in R/L/H/V")
        elif self.path is not None or self.pol is not None:
            raise RegistryError(f"{self.kind} mode {self.name!r} must not carry path or polarization labels")


def photonic_mode(path: str, pol: str) -> ModeId:
    return ModeId(name=f"{path}:{pol}", kind=PHOTONIC, path=path, pol=pol)


def atomic_mode(name: str) -> ModeId:
    return ModeId(name=name, kind=ATOMIC)


def loss_mode(name: str) -> ModeId:
    return ModeId(name=name, kind=LOSS)


class ModeRegistry:
    """Ordered, immutable collection of declared modes plus the global
    excitation cutoff.  Its hash is computed once, when first asked for."""

    __slots__ = ("modes", "cutoff", "_index", "_hash")

    def __init__(self, modes: Sequence[ModeId] = (), cutoff: int = DEFAULT_CUTOFF):
        if cutoff < 1:
            raise ValidationError("cutoff must be >= 1")
        seen = set()
        for m in modes:
            if m.name in seen:
                raise RegistryError(f"duplicate mode name {m.name!r}")
            seen.add(m.name)
        self.modes: tuple[ModeId, ...] = tuple(modes)
        self.cutoff = cutoff
        self._index = {m.name: i for i, m in enumerate(self.modes)}
        self._hash = None

    # -- construction -----------------------------------------------------

    def add_atomic(self, name: str) -> "ModeRegistry":
        return ModeRegistry(self.modes + (atomic_mode(name),), self.cutoff)

    def add_photonic_path(self, path: str, basis: str = "circular") -> "ModeRegistry":
        pols = CIRCULAR_POLS if basis == "circular" else LINEAR_POLS
        new = tuple(photonic_mode(path, p) for p in pols)
        return ModeRegistry(self.modes + new, self.cutoff)

    def add_loss(self) -> tuple["ModeRegistry", ModeId]:
        n = sum(1 for m in self.modes if m.kind == LOSS)
        mode = loss_mode(f"loss{n}")
        return ModeRegistry(self.modes + (mode,), self.cutoff), mode

    def replace(self, mapping: Mapping[ModeId, ModeId]) -> "ModeRegistry":
        """Relabel modes in place (same basis positions, new identities)."""
        return ModeRegistry(tuple(mapping.get(m, m) for m in self.modes), self.cutoff)

    # -- lookup -----------------------------------------------------------

    def index(self, mode: ModeId | str) -> int:
        name = mode if isinstance(mode, str) else mode.name
        try:
            return self._index[name]
        except KeyError:
            raise RegistryError(f"mode {name!r} is not registered") from None

    def mode(self, mode: ModeId | str) -> ModeId:
        return self.modes[self.index(mode)]

    def path_mode(self, path: str, pol: str) -> ModeId:
        for m in self.modes:
            if m.kind == PHOTONIC and m.path == path and m.pol == pol:
                return m
        raise RegistryError(f"path {path!r} has no {pol!r} mode")

    def path_pols(self, path: str) -> set[str]:
        return {m.pol for m in self.modes if m.kind == PHOTONIC and m.path == path}

    def __len__(self) -> int:
        return len(self.modes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModeRegistry)
            and self.modes == other.modes
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.modes, self.cutoff))
        return self._hash

    def __reduce__(self):
        # a string's hash differs between processes, so the cached one is not pickled
        return ModeRegistry, (self.modes, self.cutoff)

    def __repr__(self):
        return f"ModeRegistry({[m.name for m in self.modes]}, cutoff={self.cutoff})"


class Keys(tuple):
    """Term keys in stored order, interned by a cached plan and compared and
    hashed by identity: caches keyed on them read no key."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class PureState:
    """Sparse ket: occupation tuples mapped to complex amplitudes.

    Sub-normalized states are legal (heralded branches before explicit
    renormalization).  `truncation_loss` accumulates the weight (squared
    amplitude) dropped by the excitation cutoff along the pipeline that
    produced this state, in the weights of its amplitudes, so each stage
    keeps norm_sq() + truncation_loss; `order_cut` is the probability of
    the emission-order cut that a source conditioned the state on.  `_keys`
    is the map's keys as interned `Keys`, or None.
    """

    __slots__ = ("registry", "amplitudes", "truncation_loss", "order_cut", "_keys")

    def __init__(
        self,
        registry: ModeRegistry,
        amplitudes: Mapping[tuple[int, ...], complex],
        truncation_loss: float = 0.0,
        order_cut: float = 0.0,
    ):
        nmodes = len(registry)
        amps: dict[tuple[int, ...], complex] = {}
        for occ, c in amplitudes.items():
            if len(occ) != nmodes:
                raise ValidationError(f"occupation tuple {occ} does not match {nmodes} registered modes")
            if any(n < 0 for n in occ):
                raise ValidationError(f"negative occupation in {occ}")
            if sum(occ) > registry.cutoff:
                raise ValidationError(f"occupation {occ} exceeds cutoff {registry.cutoff}")
            if not cmath.isfinite(c):
                raise ValidationError(f"amplitude {c} of {occ} is not finite")
            if abs(c) >= AMPLITUDE_EPS:
                amps[tuple(occ)] = complex(c)
        self.registry = registry
        self.amplitudes = amps
        self.truncation_loss = float(truncation_loss)
        self.order_cut = float(order_cut)
        self._keys = None

    @classmethod
    def _wrap(cls, registry: ModeRegistry, amplitudes: dict, truncation_loss: float, keys: Keys | None = None, order_cut: float = 0.0) -> "PureState":
        """Share a map that holds only built-in complex amplitudes >= AMPLITUDE_EPS
        on valid terms: the trusted path of internal results, which drop tiny
        amplitudes as they build the map and skip the public checks."""
        st = cls.__new__(cls)
        st.registry, st.amplitudes, st.truncation_loss, st.order_cut, st._keys = registry, amplitudes, truncation_loss, order_cut, keys
        return st

    def _derive(self, registry: ModeRegistry, amplitudes: dict, lost: float = 0.0, keys: Keys | None = None) -> "PureState":
        """`_wrap` of a stage's result: this state's counters, with `lost` more weight cut by the cutoff."""
        return PureState._wrap(registry, amplitudes, self.truncation_loss + lost, keys, self.order_cut)

    # -- basic queries ----------------------------------------------------

    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for c in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def amplitude(self, occ: Mapping[ModeId | str, int]) -> complex:
        key = [0] * len(self.registry)
        for m, n in occ.items():
            key[self.registry.index(m)] = n
        return self.amplitudes.get(tuple(key), 0.0 + 0.0j)

    def normalize(self) -> "PureState":
        n = self.norm()
        if n < 1e-300:
            raise ValidationError("cannot normalize a zero state")
        amps = {occ: v for occ, c in self.amplitudes.items() if abs(v := c / n) >= AMPLITUDE_EPS}
        return self._derive(self.registry, amps)

    def with_registry(self, registry: ModeRegistry) -> "PureState":
        """The same state on a relabeled registry.  States never change
        their amplitude map, so the new state shares this one's."""
        if len(registry) != len(self.registry):
            raise RegistryError("relabeled registry must keep the mode count")
        return self._derive(registry, self.amplitudes, keys=self._keys)

    def __repr__(self):
        parts = ", ".join(f"{occ}: {c:.4g}" for occ, c in sorted(self.amplitudes.items()))
        return f"PureState({{{parts}}})"


class MixedState:
    """Rank-k density operator stored as a weighted ensemble of pure states."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[tuple[float, PureState]]):
        if not branches:
            raise ValidationError("a mixed state needs at least one branch")
        reg = branches[0][1].registry
        for w, st in branches:
            if not 0 < w < math.inf:
                raise ValidationError(f"branch weight {w} must be positive and finite")
            if st.registry is not reg and st.registry != reg:
                raise RegistryError("all branches of a mixed state must share one registry")
        self.branches: tuple[tuple[float, PureState], ...] = tuple((float(w), st) for w, st in branches)

    @property
    def registry(self) -> ModeRegistry:
        return self.branches[0][1].registry

    def __repr__(self):
        return f"MixedState({len(self.branches)} branches)"


def as_mixed(state: PureState | MixedState) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState([(1.0, state)])


# ---------------------------------------------------------------------------
# state constructors


def vacuum(registry: ModeRegistry) -> PureState:
    return PureState(registry, {(0,) * len(registry): 1.0 + 0.0j})


def basis_state(registry: ModeRegistry, occ: Mapping[ModeId | str, int]) -> PureState:
    key = [0] * len(registry)
    for m, n in occ.items():
        key[registry.index(m)] = n
    return PureState(registry, {tuple(key): 1.0 + 0.0j})


# ---------------------------------------------------------------------------
# mode-operator algebra


def check_unitary(u, tol: float = 1e-10) -> tuple[tuple[complex, ...], ...]:
    """`u` (nested sequences or a numpy array) as rows of built-in complex,
    checked to be a nonempty square matrix of numbers with max|U^dag U - 1|
    <= tol (a NaN deviation fails); the deviation is memoized per matrix."""
    try:
        rows = tuple(tuple(complex(x) for x in row) for row in u)
    except (TypeError, ValueError, OverflowError):
        rows = ()
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValidationError("mode matrix must be a square matrix of numbers")
    dev = _unitary_deviation(_pack(rows), len(rows))
    if not dev <= tol:
        raise ValidationError(f"matrix is not unitary (deviation {dev:.2e})")
    return rows


def _pack(rows: tuple[tuple[complex, ...], ...]) -> bytes:
    """The bytes of a matrix's real and imaginary parts, row by row: a key
    that tells 0.0 from -0.0, which equal floats do not."""
    return struct.pack(f"{2 * len(rows) ** 2}d", *(x for row in rows for c in row for x in (c.real, c.imag)))


def _unpack(ubytes: bytes, k: int) -> list[list[complex]]:
    """The k x k matrix that `_pack` gave `ubytes` for."""
    v = struct.unpack(f"{2 * k * k}d", ubytes)
    return [[complex(v[2 * (k * r + c)], v[2 * (k * r + c) + 1]) for c in range(k)] for r in range(k)]


@lru_cache(maxsize=256)
def _unitary_deviation(ubytes: bytes, k: int) -> float:
    """max|U^dag U - 1| of the k x k matrix of bytes `ubytes`; NaN if any entry of U^dag U is."""
    u = _unpack(ubytes, k)
    devs = [abs(sum(u[r][i].conjugate() * u[r][j] for r in range(k)) - (i == j)) for i in range(k) for j in range(k)]
    return max(devs) if all(d == d for d in devs) else math.nan


def _picker(idx: Sequence[int]):
    """occ -> tuple(occ[i] for i in idx); `itemgetter` gives a tuple for 2+ indices."""
    return operator.itemgetter(*idx) if len(idx) > 1 else lambda occ: tuple(occ[i] for i in idx)


@lru_cache(maxsize=4096)
def _coefficients(ubytes: bytes, ns: tuple[int, ...]) -> tuple:
    """(output photon numbers, amplitude) of each output of a term with photon
    numbers `ns` under the 1 x 1 or 2 x 2 matrix of bytes `ubytes` (not values:
    0.0 == -0.0), in order of photons out in the first mode, amplitudes below
    AMPLITUDE_EPS left out.  A phase plate u gives u^n; a two-port sends m and n
    photons, split k and l into the first output mode, to
    sum C(m, k) C(n, l) U00^k U10^(m-k) U01^l U11^(n-l) sqrt(a! b! / (m! n!))
    on a = k + l, b = m + n - a (Campos, Saleh and Teich, PRA 40, 1371 (1989))."""
    if len(ns) == 1:
        return (ns, _unpack(ubytes, 1)[0][0] ** ns[0]),
    (u00, u01), (u10, u11) = _unpack(ubytes, 2)
    m, n = ns
    sums = [0j] * (m + n + 1)
    for k in range(m + 1):
        split = math.comb(m, k) * u00**k * u10 ** (m - k)
        for l in range(n + 1):
            sums[k + l] += split * math.comb(n, l) * u01**l * u11 ** (n - l)
    f = math.factorial
    return tuple(((a, m + n - a), w) for a, v in enumerate(sums) if abs(w := v * math.sqrt(f(a) * f(m + n - a) / (f(m) * f(n)))) >= AMPLITUDE_EPS)


@lru_cache(maxsize=64)
def _state_plan(ubytes: bytes, idx: tuple[int, ...], keys: tuple[tuple[int, ...], ...]) -> tuple:
    """The `_coefficients` of the terms `keys` (in stored order) under the
    matrix of bytes `ubytes` on positions `idx`, as one program: per term,
    its (output slot, coefficient) pairs; then the slots' keys, in order of
    first use, and their `Keys`, which `_replay` interns for a result that
    keeps every slot.  Interned `keys` find the plan by identity."""
    ns_of, slots, program = _picker(idx), {}, []
    for occ in keys:
        ops = []
        for out, coeff in _coefficients(ubytes, ns_of(occ)):
            new = list(occ)
            for pos, m in zip(idx, out):
                new[pos] = m
            ops.append((slots.setdefault(tuple(new), len(slots)), coeff))
        program.append(tuple(ops))
    return tuple(program), tuple(slots), Keys(slots)


def apply_mode_unitary(state: PureState, modes: Sequence[ModeId | str], u) -> PureState:
    """Substitute a_i^dag -> sum_j U[j,i] a_j^dag on every basis term, for a
    1 x 1 or 2 x 2 unitary on one or two modes.

    Passive linear optics conserves the total excitation number, so no
    truncation occurs.  Plans are cached per matrix, acted modes and key
    layout of the state (`_state_plan`, keyed on the matrix's bytes), so a
    call replays only the arithmetic, in built-in `complex`; sums below
    AMPLITUDE_EPS are dropped.
    """
    rows = check_unitary(u)
    idx = tuple(state.registry.index(m) for m in modes)
    if len(set(idx)) != len(idx):
        raise ValidationError("modes for a mode unitary must be distinct")
    if len(rows) != len(idx) or len(rows) > 2:
        raise ValidationError(f"a {len(rows)} x {len(rows)} matrix on {len(idx)} modes: a mode unitary acts on one or two modes")
    return _replay(state, _pack(rows), idx)


def _replay(state: PureState, ubytes: bytes, idx: tuple[int, ...]) -> PureState:
    """`apply_mode_unitary` by the cached plan of a checked matrix `ubytes` on
    distinct positions `idx`.  A result whose sums all survive carries the
    plan's interned `Keys`."""
    keys = state._keys
    program, out_keys, interned = _state_plan(ubytes, idx, tuple(state.amplitudes) if keys is None else keys)
    acc = [0j] * len(out_keys)
    for ops, c in zip(program, state.amplitudes.values()):
        for slot, coeff in ops:
            acc[slot] += c * coeff
    amps = {key: c for key, c in zip(out_keys, acc) if abs(c) >= AMPLITUDE_EPS}
    return state._derive(state.registry, amps, keys=interned if len(amps) == len(acc) else None)


#: the bytes of [[e^{i phase}]] per phase, checked unitary (`cmath.exp` rounds as `numpy.exp` does)
_phase_bytes = lru_cache(maxsize=64)(lambda phase: _pack(check_unitary([[cmath.exp(1j * phase)]])))


def apply_phase(state: PureState, mode: ModeId | str, phase: float) -> PureState:
    """Phase plate: each photon in `mode` acquires e^{i*phase}; the matrix is
    built and checked once per phase."""
    return _replay(state, _phase_bytes(phase), (state.registry.index(mode),))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over a shared registry, summed over the smaller side."""
    if a.registry is not b.registry and a.registry != b.registry:
        raise RegistryError("inner product requires matching registries")
    x, y = a.amplitudes, b.amplitudes
    if len(x) > len(y):
        return sum((c.conjugate() * x[occ] for occ, c in y.items() if occ in x), start=0.0 + 0.0j).conjugate()
    return sum((c.conjugate() * y[occ] for occ, c in x.items() if occ in y), start=0.0 + 0.0j)


def _normalized(
    registry: ModeRegistry, amps: Mapping, counters: PureState, weight: float | None = None, keys: Keys | None = None
) -> tuple[PureState | None, float]:
    """The state `amps` scaled to unit norm, with the counters of the state
    `counters`, and its weight sum|c|^2 (summed here unless given); (None,
    0.0) when the weight is zero.  It keeps the interned `keys` of `amps`, if
    given, when it keeps every term."""
    if weight is None:
        weight = sum(abs(c) ** 2 for c in amps.values())
    if weight <= 0.0:
        return None, 0.0
    scale = 1.0 / math.sqrt(weight)
    scaled = {occ: v for occ, c in amps.items() if abs(v := c * scale) >= AMPLITUDE_EPS}
    return counters._derive(registry, scaled, keys=keys if len(scaled) == len(amps) else None), weight


def project(state: PureState, pattern: Mapping[ModeId | str, int]) -> tuple[PureState | None, float]:
    """Condition on an exact occupation pattern over a subset of modes.

    Returns the normalized post-measurement state (None when the outcome
    has zero weight) and the outcome weight sum|c|^2.  For a normalized
    input the weight is the Born probability.
    """
    idx = {state.registry.index(m): n for m, n in pattern.items()}
    amps = {
        occ: c
        for occ, c in state.amplitudes.items()
        if all(occ[i] == n for i, n in idx.items())
    }
    return _normalized(state.registry, amps, state)


def restrict_total_occupation(
    state: PureState, modes: Sequence[ModeId | str], total: int
) -> tuple[PureState | None, float]:
    """Coherently restrict to the sector with an exact total excitation
    count over `modes` (a sector filter, not a measurement)."""
    idx = [state.registry.index(m) for m in modes]
    amps = {occ: c for occ, c in state.amplitudes.items() if sum(occ[i] for i in idx) == total}
    return _normalized(state.registry, amps, state)


def truncate_total_occupation(
    state: PureState, modes: Sequence[ModeId | str], max_total: int
) -> tuple[PureState, float]:
    """Drop all terms with more than `max_total` excitations over `modes`.

    Returns the unnormalized remainder and the dropped weight.
    """
    idx = [state.registry.index(m) for m in modes]
    kept: dict[tuple[int, ...], complex] = {}
    dropped = 0.0
    for occ, c in state.amplitudes.items():
        if sum(occ[i] for i in idx) > max_total:
            dropped += abs(c) ** 2
        elif abs(c) >= AMPLITUDE_EPS:
            kept[occ] = c
    if not kept:
        raise ValidationError("truncation removed every term")
    return state._derive(state.registry, kept, dropped), dropped


@lru_cache(maxsize=16)
def _joint_registry(a: ModeRegistry, b: ModeRegistry) -> ModeRegistry:
    """The registry of `a` then `b`, kept per pair, so the points of a sweep share it."""
    overlap = {m.name for m in a.modes} & {m.name for m in b.modes}
    if overlap:
        raise RegistryError(f"tensor factors share mode names {sorted(overlap)}")
    return ModeRegistry(a.modes + b.modes, max(a.cutoff, b.cutoff))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of states over disjoint registries.

    The combined cutoff is the larger of the two; combined terms exceeding
    it are dropped into the truncation-loss counter.  The product's weight
    is the product of the factors' (norm_sq() + truncation_loss): its
    counter is a's cut times b's weight, plus a's norm times b's cut, plus
    the weight dropped here.  The order cuts combine as independent
    probabilities.
    """
    reg = _joint_registry(a.registry, b.registry)
    cutoff = reg.cutoff
    amps: dict[tuple[int, ...], complex] = {}
    lost = 0.0
    for occ_a, ca in a.amplitudes.items():
        na = sum(occ_a)
        for occ_b, cb in b.amplitudes.items():
            if na + sum(occ_b) > cutoff:
                lost += abs(ca * cb) ** 2
                continue
            if abs(c := ca * cb) >= AMPLITUDE_EPS:
                amps[occ_a + occ_b] = c
    na, nb = a.norm_sq(), b.norm_sq()
    loss = a.truncation_loss * (nb + b.truncation_loss) + na * b.truncation_loss + lost
    return PureState._wrap(reg, amps, loss, None, a.order_cut + b.order_cut - a.order_cut * b.order_cut)


class Split(Mapping):
    """Pattern -> (weight sum|c|^2, normalized state of the other modes), as
    `split_by_occupation` groups a state's terms.  `weights` holds every
    pattern's weight, summed in one pass over the terms by their group
    numbers `index`; a group's state is built and scaled when read, with
    the counters of the state `counters` and its `Keys` from `group_keys`
    if given."""

    def __init__(self, registry: ModeRegistry, groups: dict, index, values: list, counters: PureState, group_keys=None):
        self.registry, self._groups, self._values, self._counters, self._keys = registry, groups, values, counters, group_keys
        sums = [0.0] * len(groups)
        for g, c in zip(index, values):
            sums[g] += abs(c) ** 2
        self.weights = {p: w for p, w in zip(groups, sums) if w > 0.0}

    def __getitem__(self, pattern: tuple[int, ...]) -> tuple[float, PureState]:
        weight, values = self.weights[pattern], self._values
        amps = {rest: values[i] for i, rest in self._groups[pattern]}
        keys = None if self._keys is None else self._keys[pattern]
        return weight, _normalized(self.registry, amps, self._counters, weight, keys)[0]

    def __contains__(self, pattern) -> bool:
        return pattern in self.weights

    def __iter__(self):
        return iter(self.weights)

    def __len__(self) -> int:
        return len(self.weights)


def _split_plan(registry: ModeRegistry, idx: tuple[int, ...], keys) -> tuple[ModeRegistry, tuple[int, ...], dict, tuple[int, ...]]:
    """The registry of the modes of `registry` not at positions `idx`, their
    positions, pattern -> ((position, key on them), ...) of the terms `keys`
    in stored order, grouped by occupation of `idx` in a plain dict, and each
    term's group number."""
    keep = tuple(i for i in range(len(registry)) if i not in idx)
    pattern_of, rest_of = _picker(idx), _picker(keep)
    groups: dict[tuple[int, ...], list] = defaultdict(list)
    number: dict[tuple[int, ...], int] = {}
    index = []
    for i, occ in enumerate(keys):
        pattern = pattern_of(occ)
        index.append(number.setdefault(pattern, len(number)))
        groups[pattern].append((i, rest_of(occ)))
    rest = ModeRegistry(tuple(registry.modes[i] for i in keep), registry.cutoff)
    return rest, keep, {p: tuple(terms) for p, terms in groups.items()}, tuple(index)


#: `_split_plan` of interned `Keys`, found by their identity
_layout_split_plan = lru_cache(maxsize=256)(lambda registry, idx, keys: _split_plan(registry, idx, keys))


def split_by_occupation(state: PureState, modes: Sequence[ModeId | str]) -> Split:
    """Group the terms of `state` by their occupation of `modes`.

    Maps each occupation pattern present (listed in the order of `modes`)
    to the weight sum|c|^2 of its terms and the normalized state of the
    remaining modes; patterns with zero weight are absent.  Each group is
    what `project` gives for its pattern with the measured modes dropped.
    A group is normalized only when read (`Split`); interned `Keys`
    find their grouping cached.
    """
    reg, keys = state.registry, state._keys
    idx = tuple(reg.index(m) for m in modes)
    rest, _, groups, index = _split_plan(reg, idx, state.amplitudes) if keys is None else _layout_split_plan(reg, idx, keys)
    return Split(rest, groups, index, list(state.amplitudes.values()), state)


def trace_out(state: PureState | MixedState, modes: Sequence[ModeId | str]) -> MixedState:
    """Partial trace over `modes`, returned as an ensemble of pure states.

    Branches are the conditional states for each traced-occupation pattern;
    because those patterns are orthogonal environment states, the ensemble
    equals the partial trace exactly.
    """
    mixed = as_mixed(state)
    reg = mixed.registry
    traced = [reg.modes[i] for i in sorted(reg.index(m) for m in modes)]
    out: list[tuple[float, PureState]] = []
    for w, st in mixed.branches:
        groups = split_by_occupation(st, traced)
        for env in sorted(groups):
            bw, rest = groups[env]
            out.append((w * bw, rest))
    total = sum(w for w, _ in out)
    return MixedState([(w / total, s) for w, s in out])


def state_fidelity(state: PureState | MixedState, target: PureState) -> float:
    """<target| rho |target> for a normalized pure target."""
    acc = 0.0
    for w, st in as_mixed(state).branches:
        acc += w * abs(inner_product(target, st)) ** 2
    return acc

