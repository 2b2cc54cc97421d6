"""Poincare ball model of the real hyperbolic spaces H^2 and H^3.

Curvature is fixed at -1, metric ds = 2|dx| / (1 - |x|^2).  Interior points
live strictly inside the unit ball, boundary points on the unit sphere.
Isometries are stored as sequences of primitive moves (rotations and Mobius
translations) and are never composed symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Interior points must satisfy |x| < 1 - BALL_TOL.
BALL_TOL = 1e-12
# Escape tolerance for isometry application (closed-ball consistency check).
ESCAPE_TOL = 1e-10
# Entries per block of every temporary sized samples x directions, samples x
# coordinates or lam x radii: 1 MB of complex values, which stays in cache
# and keeps a temporary's size independent of the grid's.
BLOCK = 2**16


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, point outside the ball, ...)."""


class InternalGeometryError(RuntimeError):
    """An internal consistency check failed (result escaped the closed ball)."""


def half_root_sum(dim: int) -> float:
    """Half sum of positive restricted roots for H^dim: (dim - 1) / 2."""
    if dim not in (2, 3):
        raise GeometryError(f"dimension must be 2 or 3, got {dim}")
    return 0.5 * (dim - 1)


def _as_coords(x, dim=None):
    c = np.asarray(getattr(x, "coords", x), dtype=float)
    if dim is not None and c.shape[-1] != dim:
        raise GeometryError(f"expected dimension {dim}, got {c.shape[-1]}")
    return c


class Point:
    """Interior point of the ball model, |coords| < 1."""

    __slots__ = ("coords", "dim")

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float)
        if c.ndim != 1 or c.shape[0] not in (2, 3):
            raise GeometryError(f"point coordinates must be a 2- or 3-vector, got shape {c.shape}")
        if np.linalg.norm(c) >= 1.0 - BALL_TOL:
            raise GeometryError(f"point must lie strictly inside the unit ball: |x| = {np.linalg.norm(c)}")
        self.coords = c
        self.dim = c.shape[0]

    def __repr__(self):
        return f"Point({self.coords.tolist()})"


class BoundaryPoint:
    """Point of the sphere at infinity; renormalized to |coords| = 1 on construction."""

    __slots__ = ("coords", "dim")

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float)
        if c.ndim != 1 or c.shape[0] not in (2, 3):
            raise GeometryError(f"boundary coordinates must be a 2- or 3-vector, got shape {c.shape}")
        n = np.linalg.norm(c)
        if n == 0.0:
            raise GeometryError("boundary point cannot be the zero vector")
        self.coords = c / n
        self.dim = c.shape[0]

    def __repr__(self):
        return f"BoundaryPoint({self.coords.tolist()})"


@dataclass(frozen=True)
class Rotation:
    """Orthogonal primitive with det = +1, fixing the origin."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryError("rotation matrix must be square")
        if not np.allclose(m @ m.T, np.eye(m.shape[0]), atol=1e-10):
            raise GeometryError("rotation matrix must be orthogonal")
        if np.linalg.det(m) < 0:
            raise GeometryError("rotation matrix must have det = +1")

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)


@dataclass(frozen=True)
class MobiusTranslation:
    """Hyperbolic translation mapping the origin to ``target`` (|target| < 1)."""

    target: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "target", t)
        if np.linalg.norm(t) >= 1.0 - BALL_TOL:
            raise GeometryError("translation target must be strictly interior")

    def inverse(self) -> "MobiusTranslation":
        return MobiusTranslation(-self.target)


@dataclass(frozen=True)
class Isometry:
    """Sequence of primitive moves, applied left-to-right."""

    moves: tuple
    dim: int

    @staticmethod
    def identity(dim: int) -> "Isometry":
        return Isometry((), dim)

    @staticmethod
    def rotation(matrix) -> "Isometry":
        m = np.asarray(matrix, dtype=float)
        return Isometry((Rotation(m),), m.shape[0])

    @staticmethod
    def translation(target) -> "Isometry":
        t = np.asarray(target, dtype=float)
        return Isometry((MobiusTranslation(t),), t.shape[0])

    def inverse(self) -> "Isometry":
        return Isometry(tuple(m.inverse() for m in reversed(self.moves)), self.dim)

    def then(self, other: "Isometry") -> "Isometry":
        """The isometry applying ``self`` first and ``other`` after."""
        if self.dim != other.dim:
            raise GeometryError("cannot compose isometries of different dimensions")
        return Isometry(self.moves + other.moves, self.dim)

    def origin_image(self) -> np.ndarray:
        """Coordinates of g . 0."""
        return apply_array(self, np.zeros(self.dim))


def mobius_shift(target: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mobius translation T_a(x) for a = target; x has shape (..., d).

    T_a(x) = ((1 + 2<a,x> + |x|^2) a + (1 - |a|^2) x) / (1 + 2<a,x> + |a|^2 |x|^2)

    The same formula restricted to |x| = 1 is the induced boundary action.
    """
    a = np.asarray(target, dtype=float)
    x = np.asarray(x, dtype=float)
    ax = 2.0 * (x @ a)
    x2 = np.sum(x * x, axis=-1)
    a2 = float(a @ a)
    num = (1.0 + ax + x2)[..., None] * a + (1.0 - a2) * x
    den = 1.0 + ax + a2 * x2
    return num / den[..., None]


def apply_array(g: Isometry, x: np.ndarray) -> np.ndarray:
    """Apply g to an array of interior or boundary coordinates, shape (..., d)."""
    y = np.asarray(x, dtype=float)
    for move in g.moves:
        if isinstance(move, Rotation):
            y = y @ move.matrix.T
        else:
            y = mobius_shift(move.target, y)
    return y


def apply(g: Isometry, x):
    """Apply an isometry to a Point or BoundaryPoint (or a bare interior array)."""
    if isinstance(x, BoundaryPoint):
        y = apply_array(g, x.coords)
        if abs(np.linalg.norm(y) - 1.0) > ESCAPE_TOL:
            raise InternalGeometryError("boundary action left the unit sphere")
        return BoundaryPoint(y)
    coords = _as_coords(x)
    y = apply_array(g, coords)
    if np.any(np.linalg.norm(np.atleast_2d(y), axis=-1) > 1.0 + ESCAPE_TOL):
        raise InternalGeometryError("isometry pushed an interior point out of the closed ball")
    if isinstance(x, Point):
        return Point(y)
    return y


def dist(x, y) -> float:
    """Hyperbolic distance, arccosh(1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2))).

    Evaluated as 2 asinh(sqrt(|x-y|^2 / ((1-|x|^2)(1-|y|^2)))), the same
    value by cosh(2a) = 1 + 2 sinh^2(a): arccosh(1 + u) loses the digits of u
    below machine epsilon, so it returns 0 for points 1e-12 apart, while the
    asinh form keeps full relative accuracy at every separation.
    """
    cx = _as_coords(x)
    cy = _as_coords(y)
    if cx.shape != cy.shape:
        raise GeometryError("dist: dimension mismatch")
    d2 = float(np.sum((cx - cy) ** 2))
    den = (1.0 - float(cx @ cx)) * (1.0 - float(cy @ cy))
    return float(2.0 * np.arcsinh(np.sqrt(d2 / den)))


def pairwise_dist(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distance matrix between coordinate arrays xs (n, d) and ys (m, d).

    The form of dist, 2 asinh(sqrt(|x-y|^2 / ((1-|x|^2)(1-|y|^2)))), with
    |x-y|^2 summed from direct differences one axis at a time, so nearly
    coincident pairs keep full relative accuracy and no (n, m, d) temporary
    is built.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    d2 = np.zeros((len(xs), len(ys)))
    diff = np.empty_like(d2)
    for c in range(xs.shape[1]):
        np.subtract.outer(xs[:, c], ys[:, c], out=diff)
        np.square(diff, out=diff)
        d2 += diff
    d2 /= np.multiply.outer(1.0 - np.sum(xs * xs, axis=1), 1.0 - np.sum(ys * ys, axis=1))
    np.sqrt(d2, out=d2)
    np.arcsinh(d2, out=d2)
    d2 *= 2.0
    return d2


def busemann(x, b) -> float:
    """Horocycle bracket <A(x, b), H0>: log((1 - |x|^2) / |x - b|^2).

    Every exponent (i*lam + rho)(A(x, b)) in the transforms is
    (i*lam + rho) * busemann(x, b).
    """
    cx = _as_coords(x)
    cb = _as_coords(b)
    if cx.shape != cb.shape:
        raise GeometryError("busemann: dimension mismatch")
    return float(np.log((1.0 - cx @ cx) / np.sum((cx - cb) ** 2)))


def busemann_field(xs: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Busemann bracket matrix for interior coords xs (n, d) against boundary bs (m, d).

    log(1 - |x|^2) - log(|x|^2 - 2 x.b + 1), using |x - b|^2 = |x|^2 - 2 x.b + 1
    on the unit sphere.  Every step after the product x.b works in place in
    the one (n, m) output buffer; scaling by 2 is exact, so the values are
    those of the one-expression formula bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    bs = np.asarray(bs, dtype=float)
    x2 = np.sum(xs * xs, axis=1)
    out = xs @ bs.T
    out *= 2.0
    np.subtract(x2[:, None], out, out=out)
    out += 1.0
    np.log(out, out=out)
    np.subtract(np.log1p(-x2)[:, None], out, out=out)
    return out


def polar_to_point(r: float, omega) -> Point:
    """Geodesic polar coordinates: x = tanh(r/2) * omega."""
    if r < 0:
        raise GeometryError("radius must be nonnegative")
    w = _as_coords(omega)
    w = w / np.linalg.norm(w)
    return Point(np.tanh(0.5 * r) * w)


def point_to_polar(x):
    """Inverse of polar_to_point; at the origin the direction defaults to e1."""
    c = _as_coords(x)
    n = float(np.linalg.norm(c))
    if n == 0.0:
        e1 = np.zeros(c.shape[0])
        e1[0] = 1.0
        return 0.0, e1
    return 2.0 * float(np.arctanh(n)), c / n


def volume_weight(r, dim: int):
    """Radial density sinh^(d-1)(r) of the polar volume element."""
    if dim not in (2, 3):
        raise GeometryError(f"dimension must be 2 or 3, got {dim}")
    return np.sinh(r) ** (dim - 1)


def sphere_area(dim: int) -> float:
    """Surface area of the unit (d-1)-sphere: 2*pi for d=2, 4*pi for d=3."""
    return 2.0 * np.pi if dim == 2 else 4.0 * np.pi


def random_rotation(rng: np.random.Generator, dim: int) -> Rotation:
    """Haar-ish random rotation via QR of a Gaussian matrix, det fixed to +1."""
    m = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Rotation(q)


def random_isometry(rng: np.random.Generator, dim: int, max_shift: float = 0.7) -> Isometry:
    """Random rotation followed by a random Mobius translation."""
    rot = random_rotation(rng, dim)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    target = rng.uniform(0.1, max_shift) * direction
    return Isometry((rot, MobiusTranslation(target)), dim)
