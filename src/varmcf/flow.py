"""Time-discrete regularized mean curvature flow.

One step pushes the varifold forward by ``id + tau * h`` where h is the
regularized curvature field of the current state.  A trajectory records
the snapshots at the subdivision times together with per-step
diagnostics (mass, dissipation, the diffeomorphism certificate, Jacobian
range).

Stepping is inherently sequential; everything inside a step is pure, and
a trajectory is an immutable append-only record.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Sequence, get_type_hints

import numpy as np

# dissipation is not called here; perfbench's traced run wraps varmcf.flow.dissipation by name
from .curvature import CurvatureField, QuadratureSpec, curvature_field, dissipation  # noqa: F401
from .errors import CertificateViolation, ConfigError, EngineError
from .kernel import Kernel
from .metric import bounded_lipschitz_distance
from .varifold import Varifold, first_variation, push_forward, weighted_first_variation

__all__ = [
    "Subdivision",
    "FlowConfig",
    "StepDiagnostics",
    "FailureRecord",
    "Trajectory",
    "evolve",
    "brakke_residual",
    "refinement_study",
    "RefinementRow",
    "GaussianBump",
    "write_trajectory_json",
    "read_trajectory_json",
    "write_diagnostics_csv",
    "write_atoms_csv",
]


@dataclass(frozen=True)
class Subdivision:
    """Strictly increasing times 0 = t_0 < ... < t_m = horizon."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a subdivision needs at least two times")
        if not np.all(np.isfinite(times)):
            raise ValueError("subdivision times must be finite")
        if times[0] != 0.0:
            raise ValueError("subdivisions start at 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("subdivision times must be strictly increasing")
        if times[-1] > 1.0:
            warnings.warn(
                "horizon exceeds 1; the construction iterates identically but its "
                "guarantees are stated on [0, 1]",
                stacklevel=3,
            )
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, steps: int, horizon: float = 1.0) -> "Subdivision":
        if steps < 1:
            raise ValueError("need at least one step")
        if not math.isfinite(horizon):
            raise ValueError(f"horizon must be finite, got {horizon}")
        return cls(horizon * np.arange(steps + 1) / steps)

    @classmethod
    def dyadic(cls, level: int, horizon: float = 1.0) -> "Subdivision":
        """Uniform subdivision with 2**level steps."""
        if level < 0:
            raise ValueError("dyadic level must be >= 0")
        return cls.uniform(2**level, horizon)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def delta(self) -> float:
        """Largest step size."""
        return float(np.max(np.diff(self.times)))


STEP_MODES = ("practical", "strict")


@dataclass(frozen=True)
class FlowConfig:
    """Everything needed to run a flow, minus the initial varifold.

    step_mode selects the admissibility gate: "practical" (default) checks
    the runtime certificate ``tau * max_j |Dh(x_j)| <= diffeo_safety`` at
    every step, on Dh at the atoms only, so a passing step can still fold
    between atoms (on the 400-atom unit circle at eps 0.05, the largest
    step safety 0.5 admits makes ``det(I + tau Dh)`` negative there);
    "strict" additionally enforces the a-priori step bound
    ``strict_constant * delta <= (M + 1)^-3 eps^8`` up front, with a
    user-supplied positive constant (the theory leaves it implicit).
    """

    eps: float
    subdivision: Subdivision
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    diffeo_safety: float = 0.5
    step_mode: str = "practical"
    strict_constant: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.diffeo_safety < 1.0:
            raise ValueError("diffeo_safety must lie in (0, 1)")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}")
        # a constant <= 0 or NaN would pass every step in the strict gate
        if not (math.isfinite(self.strict_constant) and self.strict_constant > 0.0):
            raise ValueError(
                f"strict_constant must be finite and positive, got {self.strict_constant}"
            )


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    t_start: float
    t_end: float
    mass_before: float
    mass_after: float
    dissipation: float
    velocity_first_variation: float
    certificate: float
    safety: float
    jacobian_min: float
    jacobian_max: float
    mass_bound_ok: bool
    gate: str


@dataclass(frozen=True)
class FailureRecord:
    step: int
    time: float
    reason: str


@dataclass
class Trajectory:
    """Snapshots at subdivision times plus per-step diagnostics.

    ``fields[i]`` caches the curvature field of ``snapshots[i]`` (the one
    the step out of snapshot i used); missing entries are recomputed on
    demand.  ``failure`` is set when a step raised an engine error (a
    certificate violation, a quadrature budget exceeded, a degenerate
    push), in which case the snapshots up to the failing step are kept.
    """

    config: FlowConfig
    times: list[float]
    snapshots: list[Varifold]
    diagnostics: list[StepDiagnostics]
    fields: list[CurvatureField | None]
    failure: FailureRecord | None = None

    @property
    def kernel(self) -> Kernel:
        return Kernel.create(self.snapshots[0].n, self.config.eps)

    def field_at(self, i: int) -> CurvatureField:
        while len(self.fields) <= i:
            self.fields.append(None)
        if self.fields[i] is None:
            self.fields[i] = curvature_field(self.snapshots[i], self.kernel, self.config.quadrature)
        return self.fields[i]

    def index_of(self, t: float) -> int:
        """Index of a subdivision time (to 1e-12); errors when t is not one."""
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if not math.isclose(self.times[i], t, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"time {t} is not a subdivision time of this trajectory")
        return i

    def mass_history(self) -> np.ndarray:
        return np.array([v.mass() for v in self.snapshots])


def _apply_field(
    v: Varifold,
    f: CurvatureField,
    tau: float,
    safety: float,
    index: int,
    t_start: float,
    gate: str,
) -> tuple[Varifold, StepDiagnostics]:
    pushed = push_forward(v, f, tau, safety=safety)
    mass_before, mass_after = v.mass(), pushed.mass()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(v.masses > 0.0, pushed.masses / np.where(v.masses > 0.0, v.masses, 1.0), 1.0)
    diag = StepDiagnostics(
        step=index,
        t_start=t_start,
        t_end=t_start + tau,
        mass_before=mass_before,
        mass_after=mass_after,
        dissipation=f.dissipation,
        velocity_first_variation=first_variation(v, f.differentials),
        certificate=tau * f.sup_differential,
        safety=safety,
        jacobian_min=float(ratios.min()) if len(v) else 1.0,
        jacobian_max=float(ratios.max()) if len(v) else 1.0,
        mass_bound_ok=bool(mass_after <= mass_before + tau + 1e-12),
        gate=gate,
    )
    return pushed, diag


def evolve(v0: Varifold, config: FlowConfig) -> Trajectory:
    """Run the time-discrete flow over the configured subdivision.

    When a step raises an `EngineError` (its curvature field or its push)
    the run aborts and the partial trajectory is returned with a failure
    record whose reason starts with the error's class name; no automatic
    step halving happens (reproducibility over convenience).
    """
    if len(v0) == 0:
        raise ValueError("cannot evolve an empty varifold")
    kernel = Kernel.create(v0.n, config.eps)
    times = config.subdivision.times
    gate = config.step_mode
    if gate == "strict":
        mass_cap = max(1.0, v0.mass())
        limit = (mass_cap + 1.0) ** -3 * config.eps**8
        value = config.strict_constant * config.subdivision.delta
        if value > limit:
            raise CertificateViolation(
                value,
                limit,
                f"strict step gate failed: {config.strict_constant} * delta = {value:.3e} "
                f"> (M+1)^-3 eps^8 = {limit:.3e}",
            )

    traj = Trajectory(
        config=config,
        times=[float(times[0])],
        snapshots=[v0],
        diagnostics=[],
        fields=[],
    )
    current = v0
    for i in range(len(times) - 1):
        tau = float(times[i + 1] - times[i])
        try:
            f = curvature_field(current, kernel, config.quadrature)
            traj.fields.append(f)
            current, diag = _apply_field(
                current,
                f,
                tau,
                config.diffeo_safety,
                index=i,
                t_start=float(times[i]),
                gate=gate,
            )
        except EngineError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            traj.failure = FailureRecord(step=i, time=float(times[i]), reason=reason)
            break
        traj.times.append(float(times[i + 1]))
        traj.snapshots.append(current)
        traj.diagnostics.append(diag)
    return traj


# Space-time test functions ---------------------------------------------------


class GaussianBump:
    """phi(x, t) = amplitude * exp(-|x - center - t * velocity|^2 / 2 width^2)."""

    def __init__(self, center, width: float, amplitude: float = 1.0, velocity=None):
        self.center = np.asarray(center, dtype=float)
        self.width = float(width)
        self.amplitude = float(amplitude)
        self.velocity = None if velocity is None else np.asarray(velocity, dtype=float)

    def _offset(self, x: np.ndarray, t: float) -> np.ndarray:
        c = self.center if self.velocity is None else self.center + t * self.velocity
        return x - c

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        d = self._offset(x, t)
        return self.amplitude * np.exp(-np.einsum("ji,ji->j", d, d) / (2.0 * self.width**2))

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        d = self._offset(x, t)
        return -(self.value(x, t) / self.width**2)[:, None] * d


def brakke_residual(traj: Trajectory, phi, a: float, b: float) -> float:
    """Defect of the integral mass-evolution identity over [a, b].

    Compares the change of ``integral of phi`` against the time integral of
    the weighted first variation along the flow's own velocity plus the
    time-derivative term.  Time integrals treat the flow as piecewise
    constant on the subdivision intervals (the extension the identity is
    exact for in the limit); phi's own time dependence is integrated by
    midpoint.  The result is expected to shrink like the step size.
    """
    ia, ib = traj.index_of(a), traj.index_of(b)
    if ia > ib:
        raise ValueError("need a <= b")
    va, vb = traj.snapshots[ia], traj.snapshots[ib]
    lhs = float(np.dot(vb.masses, phi.value(vb.positions, b))) - float(
        np.dot(va.masses, phi.value(va.positions, a))
    )
    rhs = 0.0
    for i in range(ia, ib):
        v, f = traj.snapshots[i], traj.field_at(i)
        t0, t1 = traj.times[i], traj.times[i + 1]
        x, mid = v.positions, 0.5 * (t0 + t1)
        rhs += (t1 - t0) * weighted_first_variation(
            v, phi.value(x, mid), phi.gradient(x, mid), f.velocities, f.differentials
        )
        # The time-derivative term integrates exactly for a piecewise
        # constant flow: its time integral telescopes through phi values.
        rhs += float(np.dot(v.masses, phi.value(x, t1) - phi.value(x, t0)))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class RefinementRow:
    level: int
    distance: float
    ratio: float | None


def refinement_study(
    v0: Varifold,
    eps: float,
    levels: Sequence[int],
    spec: QuadratureSpec | None = None,
    horizon: float = 1.0,
    diffeo_safety: float = 0.5,
) -> list[RefinementRow]:
    """Distances between flows at consecutive dyadic refinements.

    Runs the flow for dyadic subdivisions at every level from the smallest
    to the largest in ``levels`` and one level beyond, and returns, per
    level j, the bounded-Lipschitz distance between the final states at
    levels j and j + 1, together with the ratio to the previous row (first
    row has none).  The distances are expected to scale like the step
    size, i.e. halve per level.
    """
    levels = list(range(min(int(j) for j in levels), max(int(j) for j in levels) + 1))
    spec = spec or QuadratureSpec()
    finals: dict[int, Varifold] = {}
    for j in levels + [levels[-1] + 1]:
        config = FlowConfig(
            eps=eps,
            subdivision=Subdivision.dyadic(j, horizon),
            quadrature=spec,
            diffeo_safety=diffeo_safety,
        )
        traj = evolve(v0, config)
        if traj.failure is not None:
            raise EngineError(
                f"refinement run at level {j} aborted: {traj.failure.reason}"
            )
        finals[j] = traj.snapshots[-1]
    rows: list[RefinementRow] = []
    prev = None
    for j in levels:
        dist = bounded_lipschitz_distance(finals[j], finals[j + 1])
        ratio = None if prev is None or prev == 0.0 else dist / prev
        rows.append(RefinementRow(j, dist, ratio))
        prev = dist
    return rows


# Serialization ----------------------------------------------------------------


def _fmt(x: float) -> str:
    """Floats are printed with 17 significant digits so parsing round-trips.

    Negative zero is canonicalized: "-0" would read back as the integer 0.
    """
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _atoms_json(v: Varifold, indent: int) -> str:
    """The atoms of v laid out as `_to_json` lays out a list of atom records,
    each formatted from one template."""
    if len(v) == 0:
        return "[]"
    num = "{:.17g}"
    row = "[" + ", ".join([num] * v.n) + "]"
    pad, inner = " " * (indent + 2), " " * (indent + 4)
    template = (
        pad + "{{\n"
        + inner + '"x": ' + row + ",\n"
        + inner + '"frame": [\n' + ",\n".join([inner + "  " + row] * v.d) + "\n" + inner + "],\n"
        + inner + '"m": ' + num + "\n"
        + pad + "}}"
    )
    # adding 0.0 turns -0.0 into 0.0, as `_fmt` does
    values = np.concatenate([v.positions, v.frames.reshape(len(v), -1), v.masses[:, None]], axis=1)
    atoms = ",\n".join(template.format(*atom) for atom in (values + 0.0).tolist())
    return "[\n" + atoms + "\n" + " " * indent + "]"


def _to_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, Varifold):
        return _atoms_json(obj, indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_to_json(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, float) for v in obj):
            return "[" + ", ".join(map(_fmt, obj)) + "]"
        if all(isinstance(v, (int, float, bool)) or v is None for v in obj):
            return "[" + ", ".join(_to_json(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def _object(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    return obj


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _check_keys(obj: dict, context: str, required: tuple = (), optional: tuple = ()) -> None:
    unknown = set(_object(obj, context)) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")


def _scalar(value, kind: type, where: str):
    """A JSON scalar of type ``kind``; an integer also passes for a float."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def record_from_dict(cls, data: dict, context: str, **built):
    """Build the dataclass ``cls`` from a JSON object keyed by its init fields.

    Fields without a default are required.  ``int``, ``float``, ``bool`` and
    ``str`` fields take JSON values of that type (an integer also passes
    for a float and is converted); a field typed as another dataclass is
    read as the nested record ``context.field``.  ``built`` supplies fields
    the caller made from other keys, which ``data`` may then not carry.
    """
    init = [f for f in fields(cls) if f.init and f.name not in built]
    _check_keys(
        data,
        context,
        required=tuple(
            f.name for f in init if f.default is MISSING and f.default_factory is MISSING
        ),
        optional=tuple(f.name for f in init),
    )
    hints = get_type_hints(cls)
    values = dict(built)
    for name, value in data.items():
        kind = hints[name]
        if is_dataclass(kind):
            value = record_from_dict(kind, value, f"{context}.{name}")
        elif kind in (int, float, bool, str):
            value = _scalar(value, kind, f"{context}.{name}")
        values[name] = value
    return cls(**values)


def config_to_dict(config: FlowConfig) -> dict:
    """FlowConfig's fields, with the subdivision stored as its ``times``."""
    doc = asdict(config)
    doc["subdivision"] = config.subdivision.times.tolist()
    return {("times" if k == "subdivision" else k): v for k, v in doc.items()}


def flow_config_from_dict(data: dict, context: str) -> FlowConfig:
    """Inverse of ``config_to_dict``.  Exactly one of ``steps``, ``dyadic_level``
    or ``times`` makes the subdivision, ``horizon`` goes with the first two, and
    the other keys are FlowConfig fields."""
    modes = [k for k in ("steps", "dyadic_level", "times") if k in _object(data, context)]
    if len(modes) != 1:
        raise ConfigError(f"{context}: provide exactly one of 'steps', 'dyadic_level' or 'times'")
    mode, span = modes[0], {}
    if "horizon" in data:
        if mode == "times":
            raise ConfigError(f"{context}.horizon: not allowed with 'times', which set it")
        span["horizon"] = _scalar(data["horizon"], float, f"{context}.horizon")
    if mode == "times":
        where = f"{context}.times"
        subdivision = Subdivision([_scalar(t, float, where) for t in _list(data["times"], where)])
    else:
        make = Subdivision.uniform if mode == "steps" else Subdivision.dyadic
        subdivision = make(_scalar(data[mode], int, f"{context}.{mode}"), **span)
    rest = {k: v for k, v in data.items() if k not in ("horizon", mode)}
    return record_from_dict(FlowConfig, rest, context, subdivision=subdivision)


def varifold_to_dict(v: Varifold) -> dict:
    """The varifold record for `_to_json`, which writes ``atoms`` (v itself)
    as a list of ``{"x", "frame", "m"}`` records."""
    return {"d": v.d, "n": v.n, "atoms": v}


def _numbers(value, shape: tuple, where: str) -> None:
    """Check that ``value`` is a JSON number, or lists of them nested to ``shape``."""
    if not shape:
        _scalar(value, float, where)
    elif isinstance(value, list) and len(value) == shape[0]:
        for item in value:
            _numbers(item, shape[1:], where)
    else:
        raise ConfigError(f"{where}: expected a list of {shape[0]}, got {value!r}")


def varifold_from_dict(data: dict, context: str) -> Varifold:
    d, n = (_scalar(data[k], int, f"{context}.{k}") for k in ("d", "n"))
    atoms = _list(data["atoms"], f"{context}.atoms")
    for j, a in enumerate(atoms):
        where = f"{context}.atoms[{j}]"
        _check_keys(a, where, required=("x", "frame", "m"))
        for key, shape in (("x", (n,)), ("frame", (d, n)), ("m", ())):
            _numbers(a[key], shape, f"{where}.{key}")
    if not atoms:
        return Varifold.empty(d, n)
    return Varifold(
        d,
        n,
        np.array([a["x"] for a in atoms], dtype=float),
        np.array([a["frame"] for a in atoms], dtype=float),
        np.array([a["m"] for a in atoms], dtype=float),
    )


def trajectory_to_dict(traj: Trajectory) -> dict:
    doc = {
        "config": config_to_dict(traj.config),
        "snapshots": [
            {"t": float(t), **varifold_to_dict(v)} for t, v in zip(traj.times, traj.snapshots)
        ],
        "diagnostics": [asdict(d) for d in traj.diagnostics],
    }
    if traj.failure is not None:
        doc["failure"] = asdict(traj.failure)
    return doc


def write_trajectory_json(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write(_to_json(trajectory_to_dict(traj)))
        fh.write("\n")


def read_trajectory_json(path) -> Trajectory:
    with open(path) as fh:
        doc = json.load(fh)
    _check_keys(
        doc, "trajectory", required=("config", "snapshots", "diagnostics"), optional=("failure",)
    )
    config = flow_config_from_dict(doc["config"], "config")
    config_times = config.subdivision.times.tolist()
    records = _list(doc["snapshots"], "snapshots")
    if len(records) > len(config_times):
        raise ConfigError(f"snapshots: {len(records)} records for {len(config_times)} config times")
    times, snapshots = [], []
    for i, s in enumerate(records):
        _check_keys(s, f"snapshots[{i}]", required=("t", "d", "n", "atoms"))
        # both are written with 17 digits, so they compare exactly
        times.append(_scalar(s["t"], float, f"snapshots[{i}].t"))
        if times[i] != config_times[i]:
            raise ConfigError(
                f"snapshots[{i}].t: {times[i]!r} is not config.times[{i}] = {config_times[i]!r}"
            )
        snapshots.append(varifold_from_dict(s, f"snapshots[{i}]"))
    failure = doc.get("failure")
    if failure is not None:
        failure = record_from_dict(FailureRecord, failure, "failure")
    last = len(snapshots) - 1
    if failure is None:
        if len(snapshots) != len(config_times):
            raise ConfigError(
                f"snapshots: {len(snapshots)} records for {len(config_times)} config times "
                "and no failure record"
            )
    elif failure.step != last:
        raise ConfigError(f"failure.step: {failure.step} is not {last}, the last snapshot's index")
    elif last == len(config_times) - 1:
        raise ConfigError(f"failure.step: {last} is not a step of config.times, which has {last}")
    elif failure.time != config_times[last]:  # exact, as for the snapshot times
        raise ConfigError(
            f"failure.time: {failure.time!r} is not config.times[{last}] = {config_times[last]!r}"
        )
    diagnostics = [
        record_from_dict(StepDiagnostics, d, f"diagnostics[{i}]")
        for i, d in enumerate(_list(doc["diagnostics"], "diagnostics"))
    ]
    if len(diagnostics) != len(snapshots) - 1:
        raise ConfigError(
            f"diagnostics: expected one row per step ({len(snapshots) - 1}), got {len(diagnostics)}"
        )
    return Trajectory(
        config=config,
        times=times,
        snapshots=snapshots,
        diagnostics=diagnostics,
        fields=[None] * len(snapshots),
        failure=failure,
    )


# the CSV leaves out the step's safety limit, which the trajectory file keeps
DIAGNOSTICS_HEADER = [f.name for f in fields(StepDiagnostics) if f.name != "safety"]


def write_diagnostics_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAGNOSTICS_HEADER)
        for d in traj.diagnostics:
            row = [getattr(d, name) for name in DIAGNOSTICS_HEADER]
            writer.writerow(
                int(v) if isinstance(v, bool) else _fmt(v) if isinstance(v, float) else v
                for v in row
            )


def write_atoms_csv(traj: Trajectory, path) -> None:
    """Flat per-atom table (t, atom_id, coordinates, mass, speed) for plotting.

    The speed is left empty on the snapshot an aborted run stopped at when
    its curvature field is what failed.
    """
    n = traj.snapshots[0].n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "atom_id"] + [f"x{i + 1}" for i in range(n)] + ["m", "h_norm"])
        for i, (t, v) in enumerate(zip(traj.times, traj.snapshots)):
            try:
                speeds = [_fmt(s) for s in np.linalg.norm(traj.field_at(i).velocities, axis=1)]
            except EngineError:
                if traj.failure is None or traj.failure.step != i:
                    raise
                speeds = [""] * len(v)
            for j in range(len(v)):
                writer.writerow(
                    [_fmt(t), j]
                    + [_fmt(c) for c in v.positions[j]]
                    + [_fmt(v.masses[j]), speeds[j]]
                )
