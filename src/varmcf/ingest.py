"""Data ingestion and synthetic shapes.

File loaders accept CSV (columns ``x1..xn[,t11..tdn][,m]``) and JSON in
the same atom schema the trajectory writer emits, and return a
`Varifold`.  Files without frames get tangent planes from local PCA over
k nearest neighbors.  The shape generators produce varifolds with
analytic positions and exact tangent planes; in ``uniform-per-length``
mass mode every atom carries ``total measure / N``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import LoadError
from .varifold import Varifold

__all__ = [
    "ShapeSpec",
    "load",
    "save_varifold_json",
    "estimate_tangent_planes",
    "generate",
    "SHAPE_KINDS",
]

MASS_MODES = ("uniform-per-length", "unit-per-atom")
SHAPE_KINDS = (
    "circle",
    "sphere",
    "segment",
    "torus",
    "dumbbell",
    "crossing-lines",
    "custom-graph",
)

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

def _reorthonormalize(frame: np.ndarray, where: str) -> np.ndarray:
    """Snap a nearly orthonormal frame back to the manifold (polar factor).

    The deviation is the largest singular-value offset from 1, i.e. the
    operator distance to the closest orthonormal frame; up to 1e-6 it is
    corrected, beyond that the frame is rejected with an error that
    starts with ``where`` (the file and the row or atom).
    """
    gram = frame @ frame.T
    if float(np.abs(gram - np.eye(frame.shape[0])).max()) <= 1e-12:
        return frame
    u, s, vt = np.linalg.svd(frame, full_matrices=False)
    dev = float(np.abs(s - 1.0).max())
    if dev > 1e-6:
        raise LoadError(f"{where}: frame is not orthonormal (deviation {dev:.3e} > 1e-6)")
    return u @ vt


def _load_csv(path: Path) -> tuple[list, list, list]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        xnames = [h for h in header if re.fullmatch(r"x\d+", h)]
        tnames = [h for h in header if re.fullmatch(r"t\d\d", h)]
        mcol = [i for i, h in enumerate(header) if h == "m"]
        if not xnames:
            raise LoadError(f"{path}: header defines no coordinate columns x1..xn")
        n = len(xnames)
        d = max(1, *(int(h[1]) for h in tnames)) if tnames else 0
        if d > n:
            raise LoadError(f"{path}: frame columns give {d} rows, more than the {n} coordinates")
        # each column is placed by its name, whatever the header order
        coords = [f"x{b}" for b in range(1, n + 1)]
        entries = [f"t{a}{b}" for a in range(1, d + 1) for b in range(1, n + 1)]
        for names, expected, what in ((xnames, coords, "coordinate"), (tnames, entries, "frame")):
            if sorted(names) != sorted(expected):
                raise LoadError(
                    f"{path}: {what} columns must be {expected[0]}..{expected[-1]}, each once; "
                    f"header is {','.join(header)}"
                )
        xcols = [header.index(name) for name in coords]
        tcols = [header.index(name) for name in entries]
        points, frames, masses = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                points.append([float(row[i]) for i in xcols])
                if tcols:
                    frame = np.array([float(row[i]) for i in tcols]).reshape(d, n)
                    frames.append(_reorthonormalize(frame, f"{path}: row {rownum}"))
                if mcol:
                    masses.append(float(row[mcol[0]]))
            except (ValueError, IndexError) as exc:
                raise LoadError(f"{path}: row {rownum}: {exc}") from None
    if not points:
        raise LoadError(f"{path}: no data rows")
    return points, frames, masses


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_json(path: Path, d: int | None) -> tuple[list, list, list]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LoadError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise LoadError(
            f"{path}: expected an object with an 'atoms' list, got a {type(doc).__name__}"
        )
    atoms = doc.get("atoms")
    if atoms is None:
        raise LoadError(f"{path}: missing 'atoms' field")
    if not isinstance(atoms, list):
        raise LoadError(f"{path}: atoms: expected a list, got {atoms!r}")
    if not atoms:
        raise LoadError(f"{path}: no atoms")
    points, frames, masses = [], [], []
    for i, atom in enumerate(atoms):
        where = f"{path}: atom {i}"
        if not isinstance(atom, dict):
            raise LoadError(f"{where}: expected an object, got {atom!r}")
        if i == 0:
            # atom 0 decides whether every atom carries a frame and a mass
            optional = {key: key in atom for key in ("frame", "m")}
        try:
            for key, first in optional.items():
                if (key in atom) != first:
                    state = "missing, but atom 0 has one" if first else "present, but atom 0 has none"
                    raise LoadError(f"{where}: {key}: {state}")
            x = atom["x"]
            if not (isinstance(x, list) and x and all(map(_is_number, x))):
                raise LoadError(f"{where}: x: expected a list of numbers, got {x!r}")
            if points and len(x) != len(points[0]):
                raise LoadError(f"{where}: x: expected {len(points[0])} coordinates as on atom 0, got {len(x)}")
            points.append([float(c) for c in x])
            if optional["frame"]:
                frame, n = atom["frame"], len(x)
                rows = frame if isinstance(frame, list) else []
                if not (
                    1 <= len(rows) <= n
                    and all(isinstance(r, list) and len(r) == n and all(map(_is_number, r)) for r in rows)
                ):
                    message = f"expected 1 to {n} rows of {n} numbers, got {frame!r}"
                    raise LoadError(f"{where}: frame: {message}")
                if frames and len(rows) != len(frames[0]):
                    message = f"expected {len(frames[0])} rows as on atom 0, got {len(rows)}"
                    raise LoadError(f"{where}: frame: {message}")
                frames.append(_reorthonormalize(np.array(frame, dtype=float), where))
            if optional["m"]:
                if not _is_number(atom["m"]):
                    raise LoadError(f"{where}: m: expected a number, got {atom['m']!r}")
                masses.append(float(atom["m"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"{where}: {exc}") from None
    # the file's own n and d, when present, must agree with its atoms and with d
    expected = [("n", len(points[0]), f"atom 0 has {len(points[0])} coordinates")]
    if frames:
        expected.append(("d", len(frames[0]), f"atom 0's frame has {len(frames[0])} rows"))
    elif d is not None:
        expected.append(("d", d, f"d = {d} was requested"))
    for key, value, reason in expected:
        if key in doc and not (_is_number(doc[key]) and doc[key] == value):
            raise LoadError(f"{path}: {key}: the file gives {doc[key]!r}, but {reason}")
    return points, frames, masses


def load(path, d: int | None = None, k: int = 8) -> Varifold:
    """Read a varifold from a JSON file (suffix ``.json``) or else a CSV file.

    Frames, when present, are validated orthonormal (re-orthonormalized
    when off by at most 1e-6, rejected beyond); parse failures name the
    offending row or atom.  A file without frames gets d-dimensional
    planes from `estimate_tangent_planes` over k neighbors; a file with
    frames must have d rows per frame when d is given.  A JSON file's own
    ``n`` and ``d`` keys, when present, must agree with its atoms and with
    d.  Masses default to 1.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"input file not found: {path}")
    points, frames, masses = (
        _load_json(path, d) if path.suffix.lower() == ".json" else _load_csv(path)
    )
    points = np.array(points, dtype=float)
    masses = np.array(masses) if masses else np.ones(len(points))
    if frames:
        if d is not None and d != len(frames[0]):
            raise LoadError(f"{path}: d: {d} was requested, but the frames have {len(frames[0])} rows")
        return Varifold(len(frames[0]), points.shape[1], points, frames, masses)
    if d is None:
        raise ValueError("plane dimension d is required when the cloud carries no frames")
    return estimate_tangent_planes(points, d, k, masses)


def save_varifold_json(v: Varifold, path) -> None:
    from .flow import _to_json, varifold_to_dict

    with open(path, "w") as fh:
        fh.write(_to_json(varifold_to_dict(v)))
        fh.write("\n")


def estimate_tangent_planes(points: np.ndarray, d: int, k: int, masses: np.ndarray) -> Varifold:
    """Tangent planes from the top principal directions of k-NN neighborhoods.

    Ties in the eigendecomposition are broken deterministically by fixing
    each direction's sign at its largest-magnitude component (first index
    wins).  Degenerate neighborhoods (zero covariance, or rank below d)
    are an error naming the first such point.
    """
    points = np.asarray(points, dtype=float)
    count, n = points.shape
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d = {d} for points in R^{n}")
    if k < d + 1:
        raise ValueError(f"need k >= d + 1 neighbors, got k = {k}, d = {d}")
    if count <= k:
        raise ValueError(f"need more than k = {k} points, got {count}")
    _, idx = cKDTree(points).query(points, k=k)
    nbrs = points[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.matmul(centered.transpose(0, 2, 1), centered)
    evals, evecs = np.linalg.eigh(cov)
    zero = np.abs(cov).max(axis=(1, 2)) <= 1e-30
    bad = np.flatnonzero(zero | (evals[:, n - d] <= 1e-30))
    if bad.size:
        j = int(bad[0])
        reason = "zero covariance" if zero[j] else f"rank below {d}"
        raise LoadError(f"degenerate neighborhood at point {j}: {reason}")
    # rows, leading directions first
    basis = evecs[:, :, ::-1][:, :, :d].transpose(0, 2, 1)
    lead = np.argmax(np.abs(basis), axis=2)
    negative = np.take_along_axis(basis, lead[:, :, None], axis=2) < 0.0
    frames = np.where(negative, -basis, basis)
    return Varifold(d, n, points, frames, masses)


@dataclass(frozen=True)
class ShapeSpec:
    """Parameters of an analytic test shape.

    kind : one of SHAPE_KINDS.
    samples : atom count (its exact meaning is per kind: per line for
        crossing-lines, total otherwise); at least 3.
    mass_mode : "uniform-per-length" spreads the total measure evenly,
        "unit-per-atom" gives every atom mass 1.
    radius / minor_radius / neck / angle / length : per-kind parameters.
    intersection : crossing-lines only; "double" places one atom per line
        at the crossing (half mass each), "single" keeps one atom with the
        first line's direction.
    graph : custom-graph only; {"vertices": [[...]], "edges": [[i, j]]}.
    """

    kind: str
    samples: int
    mass_mode: str = "uniform-per-length"
    radius: float = 1.0
    minor_radius: float = 0.25
    neck: float = 0.35
    angle: float = math.pi / 2
    length: float = 2.0
    intersection: str = "double"
    graph: dict | None = None

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.samples < 3:
            raise ValueError("need at least 3 samples")
        if self.mass_mode not in MASS_MODES:
            raise ValueError(f"mass_mode must be one of {MASS_MODES}")
        for name in ("radius", "minor_radius", "neck", "length"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.intersection not in ("double", "single"):
            raise ValueError("intersection must be 'double' or 'single'")


def _masses(spec: ShapeSpec, count: int, total_measure: float) -> np.ndarray:
    if spec.mass_mode == "unit-per-atom":
        return np.ones(count)
    return np.full(count, total_measure / count)


def _circle(spec: ShapeSpec) -> Varifold:
    r, n_atoms = spec.radius, spec.samples
    theta = 2.0 * math.pi * np.arange(n_atoms) / n_atoms
    pos = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    frames = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
    return Varifold(1, 2, pos, frames, _masses(spec, n_atoms, 2.0 * math.pi * r))


def _segment(spec: ShapeSpec) -> Varifold:
    length, n_atoms = spec.length, spec.samples
    s = ((np.arange(n_atoms) + 0.5) / n_atoms - 0.5) * length
    pos = np.stack([s, np.zeros(n_atoms)], axis=1)
    frames = np.tile(np.array([[1.0, 0.0]]), (n_atoms, 1))[:, None, :]
    return Varifold(1, 2, pos, frames, _masses(spec, n_atoms, length))


def _sphere(spec: ShapeSpec) -> Varifold:
    r, n_atoms = spec.radius, spec.samples
    k = np.arange(n_atoms)
    z = 1.0 - (2.0 * k + 1.0) / n_atoms
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * GOLDEN_ANGLE
    units = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    pos = r * units
    frames = np.empty((n_atoms, 2, 3))
    for j in range(n_atoms):
        u = units[j]
        # tangent basis orthogonal to the radial direction
        a = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = a - np.dot(a, u) * u
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(u, t1)
        frames[j] = np.stack([t1, t2])
    return Varifold(2, 3, pos, frames, _masses(spec, n_atoms, 4.0 * math.pi * r * r))


def _torus(spec: ShapeSpec) -> Varifold:
    big, small, n_atoms = spec.radius, spec.minor_radius, spec.samples
    k = np.arange(n_atoms)
    u = 2.0 * math.pi * k / n_atoms
    v = 2.0 * math.pi * np.mod(k * GOLDEN_ANGLE / (2.0 * math.pi), 1.0)
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    pos = np.stack([(big + small * cv) * cu, (big + small * cv) * su, small * sv], axis=1)
    t_u = np.stack([-su, cu, np.zeros(n_atoms)], axis=1)
    t_v = np.stack([-sv * cu, -sv * su, cv], axis=1)
    frames = np.stack([t_u, t_v], axis=1)
    area = 4.0 * math.pi**2 * big * small
    return Varifold(2, 3, pos, frames, _masses(spec, n_atoms, area))


def _dumbbell(spec: ShapeSpec) -> Varifold:
    """Closed pinched curve (Cassini oval) with neck half-width ``neck``.

    In polar form ``rho(theta)^2 = c^2 cos(2 theta) + sqrt(c^4 cos^2(2 theta)
    + a^4 - c^4)`` with ``a^2 = (1 + neck^2)/2`` and ``c^2 = (1 - neck^2)/2``,
    so the bells reach radius 1 and the waist sits at the requested width.
    Atoms are placed uniformly in arc length via a dense parameter table.
    """
    w = spec.neck
    if w >= 1.0:
        raise ValueError("dumbbell neck must be < 1")
    a2 = (1.0 + w * w) / 2.0
    c2 = (1.0 - w * w) / 2.0

    def curve(theta):
        c2t = np.cos(2.0 * theta)
        rho = np.sqrt(c2 * c2t + np.sqrt((c2 * c2t) ** 2 + a2 * a2 - c2 * c2))
        return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)

    def tangent_of(theta):
        c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
        inner = np.sqrt((c2 * c2t) ** 2 + a2 * a2 - c2 * c2)
        rho = np.sqrt(c2 * c2t + inner)
        drho = -c2 * s2t * (1.0 + c2 * c2t / inner) / rho
        t = (
            drho[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            + rho[:, None] * np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        )
        return t / np.linalg.norm(t, axis=1, keepdims=True)

    dense = np.linspace(0.0, 2.0 * math.pi, 20001)
    pts = curve(dense)
    seglen = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seglen)])
    total = arc[-1]
    targets = total * np.arange(spec.samples) / spec.samples
    theta = np.interp(targets, arc, dense)
    pos = curve(theta)
    tangent = tangent_of(theta)
    return Varifold(1, 2, pos, tangent[:, None, :], _masses(spec, spec.samples, total))


def _crossing_lines(spec: ShapeSpec) -> Varifold:
    """Two segments of equal length crossing at the origin.

    Sampling is endpoint-inclusive and exactly symmetric about the center;
    with an odd sample count each line contributes an atom at the crossing
    itself.  In "double" mode both center atoms are kept (one per line); in
    "single" mode they merge into one atom carrying the first line's
    direction and the combined mass.
    """
    n_atoms, length, angle = spec.samples, spec.length, spec.angle
    dirs = [np.array([1.0, 0.0]), np.array([math.cos(angle), math.sin(angle)])]
    # integer-scaled offsets negate exactly, keeping the fixture symmetric
    ticks = (2 * np.arange(n_atoms) - (n_atoms - 1)).astype(float)
    offsets = ticks * (length / (2.0 * (n_atoms - 1)))
    per_atom = 1.0 if spec.mass_mode == "unit-per-atom" else length / n_atoms

    positions, frames, masses = [], [], []
    for line, u in enumerate(dirs):
        for s in offsets:
            if (
                spec.intersection == "single"
                and line == 1
                and s == 0.0
            ):
                continue
            positions.append(s * u)
            frames.append(u[None, :])
            masses.append(per_atom)
    pos = np.stack(positions)
    frm = np.stack(frames)
    mas = np.array(masses)
    if spec.intersection == "single" and n_atoms % 2 == 1:
        center = int(np.argmin(np.abs(offsets)))  # index within line 0
        mas[center] += per_atom
    return Varifold(1, 2, pos, frm, mas)


def _custom_graph(spec: ShapeSpec) -> Varifold:
    if not spec.graph:
        raise ValueError("custom-graph needs a graph specification")
    try:
        vertices = np.asarray(spec.graph["vertices"], dtype=float)
        edges = spec.graph["edges"]
        if vertices.ndim != 2 or not vertices.size:
            raise ValueError(f"vertices: expected a non-empty (V, n) array, got shape {vertices.shape}")
        if not (isinstance(edges, list) and edges):
            raise ValueError(f"edges: expected a non-empty list, got {edges!r}")
        for edge in edges:
            # type(i) is int rejects bools and floats, which would index silently
            pair = isinstance(edge, (list, tuple)) and len(edge) == 2
            if not (pair and all(type(i) is int and 0 <= i < len(vertices) for i in edge)):
                raise ValueError(f"edge {edge!r}: expected two vertex indices in [0, {len(vertices)})")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid graph specification: {exc}") from None
    n = vertices.shape[1]
    lengths = np.array([np.linalg.norm(vertices[j] - vertices[i]) for i, j in edges])
    if np.any(lengths <= 0.0):
        raise ValueError("graph edges must have positive length")
    total = float(lengths.sum())
    counts = np.maximum(1, np.round(spec.samples * lengths / total).astype(int))
    positions, frames = [], []
    for (i, j), count in zip(edges, counts):
        u = (vertices[j] - vertices[i]) / np.linalg.norm(vertices[j] - vertices[i])
        for t in (np.arange(count) + 0.5) / count:
            positions.append(vertices[i] + t * (vertices[j] - vertices[i]))
            frames.append(u[None, :])
    pos = np.stack(positions)
    return Varifold(1, n, pos, np.stack(frames), _masses(spec, pos.shape[0], total))


_GENERATORS = {
    "circle": _circle,
    "sphere": _sphere,
    "segment": _segment,
    "torus": _torus,
    "dumbbell": _dumbbell,
    "crossing-lines": _crossing_lines,
    "custom-graph": _custom_graph,
}


def generate(spec: ShapeSpec) -> Varifold:
    """Sample an analytic shape into a varifold with exact tangent planes."""
    return _GENERATORS[spec.kind](spec)
