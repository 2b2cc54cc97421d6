"""Grids, quadrature weights and sampled test functions.

The polar product grid realizes the volume element
dmu = S_{d-1} sinh^{d-1}(r) dr d(omega) with the boundary measure normalized
to total mass 1 (so the spherical function is exactly 1 at the origin) and
the sphere-area factor S_{d-1} kept in one place, inside
SampledFunction.radial_weights.

Test functions are analytic bump specifications sampled on demand; off-grid
evaluation always goes through the analytic descriptor, never interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BLOCK, Isometry, apply_array, dist, sphere_area, volume_weight

# Relative spread across the boundary below which samples count as radial.
_RADIAL_TOL = 1e-10


class ConfigurationError(ValueError):
    """Grid/bump parameters violate a precondition (support exceeding R_max, ...)."""


def legendre_rule(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: legendre_rules([n])[0]."""
    return legendre_rules([n])[0]


def legendre_rules(ns):
    """Gauss-Legendre rules (nodes ascending, weights) on [-1, 1] for each order in ``ns``, in order.

    Three Newton steps on the three-term recurrence from Tricomi's asymptotic
    nodes, then weights 2(1 - x^2) / (n P_{n-1}(x))^2, in O(n^2) operations
    per rule.  Only the nonnegative half is computed and mirrored, so each
    rule is exactly symmetric.  The recurrence coefficients depend only on
    the step j, so one recurrence runs over the half-nodes of every distinct
    order (_legendre_pair), in max(ns) steps in place of sum(ns).  Every
    entry takes the operations of its rule built alone, so each rule is that
    rule bit for bit.
    """
    ns = [int(n) for n in ns]
    if any(n <= 0 for n in ns):
        raise ConfigurationError("Gauss-Legendre rule needs n > 0")
    order = sorted(set(ns), reverse=True)
    halves = []
    for n in order:
        k = np.arange(1, n // 2 + 1)
        x = (1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
        halves.append(np.append(x, 0.0) if n % 2 else x)
    ends = np.cumsum([0] + [len(x) for x in halves])
    x = np.concatenate(halves)
    n_of = np.repeat(np.array(order, dtype=float), np.diff(ends))
    for _ in range(3):
        p, q = _legendre_pair(x, order, ends)
        x = x - p * (1.0 - x) * (1.0 + x) / (n_of * (q - x * p))
    _, q = _legendre_pair(x, order, ends)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n_of * q) ** 2
    rules = {}
    for n, a, b in zip(order, ends[:-1], ends[1:]):
        rules[n] = np.concatenate([-x[a : a + n // 2], x[a:b][::-1]]), np.concatenate([w[a : a + n // 2], w[a:b][::-1]])
    return [rules[n] for n in ns]


def _legendre_pair(x: np.ndarray, order, ends):
    """P_n(x) and P_{n-1}(x) of each node's own n, by the three-term recurrence.

    ``x`` holds the half-nodes of the orders ``order`` (descending), order i
    in x[ends[i] : ends[i + 1]].  The nodes of the orders n >= j are a prefix
    of x, so the recurrence runs in stages, shortest order first: each stage
    steps the prefix of the orders still running up to the next order and
    then keeps that order's values.
    """
    p_n, p_prev_n = np.empty_like(x), np.empty_like(x)
    p_prev, p = np.ones_like(x), x
    start = 2
    for i in reversed(range(len(order))):
        a, b = ends[i], ends[i + 1]
        xs, p_prev, p = x[:b], p_prev[:b], p[:b]
        for j in range(start, order[i] + 1):
            p_prev, p = p, (2.0 - 1.0 / j) * xs * p - (1.0 - 1.0 / j) * p_prev
        start = order[i] + 1
        p_n[a:b], p_prev_n[a:b] = p[a:], p_prev[a:]
    return p_n, p_prev_n


def legendre_table(l_max: int, x) -> np.ndarray:
    """Normalized associated Legendre functions Pbar_l^m(x) for m <= l <= l_max.

    Shape (l_max + 1, l_max + 1, len(x)), indexed [m, l]; entries with l < m
    are 0.  Pbar_l^m = sqrt((2l + 1) (l - m)! / (l + m)!) P_l^m with the
    Condon-Shortley phase of scipy.special.lpmv, so that
    1/2 int_{-1}^{1} Pbar_l^m(x)^2 dx = 1 and Pbar_l^|m|(cos theta) e^{i m phi}
    are orthonormal on S^2 under the measure of total mass 1; Pbar_l^0 is
    sqrt(2l + 1) P_l.  The diagonal is Pbar_m^m = -sqrt((2m + 1) / (2m))
    sin(theta) Pbar_(m-1)^(m-1), and each l follows for every m < l at once
    from the three-term recurrence

        Pbar_l^m = a x Pbar_(l-1)^m - b Pbar_(l-2)^m,
        a = sqrt((4l^2 - 1) / (l^2 - m^2)),
        b = sqrt((2l + 1) ((l - 1)^2 - m^2) / ((2l - 3) (l^2 - m^2))),

    whose b vanishes at m = l - 1.
    """
    x = np.asarray(x, dtype=float)
    sin = np.sqrt((1.0 - x) * (1.0 + x))
    out = np.zeros((l_max + 1, l_max + 1, len(x)))
    out[0, 0] = 1.0
    for m in range(1, l_max + 1):
        out[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin * out[m - 1, m - 1]
    for l in range(1, l_max + 1):
        m = np.arange(l)
        a = np.sqrt((4.0 * l * l - 1.0) / ((l - m) * (l + m)))[:, None]
        np.multiply(a * x, out[:l, l - 1], out=out[:l, l])
        if l >= 2:
            b = np.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m) / ((2.0 * l - 3.0) * (l - m) * (l + m)))
            out[:l, l] -= b[:, None] * out[:l, l - 2]
    return out


def _affine(rule, a: float, b: float):
    """The rule (x, w) on [-1, 1] mapped to [a, b]."""
    x, w = rule
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


@dataclass(frozen=True)
class RadialGrid:
    """Gauss-Legendre nodes and weights on [0, r_max]."""

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float

    @staticmethod
    def gauss_legendre(n: int, r_max: float) -> "RadialGrid":
        if n <= 0:
            raise ConfigurationError("radial grid needs n > 0 and r_max > 0")
        return RadialGrid.from_legendre(legendre_rule(n), r_max)

    @staticmethod
    def from_legendre(rule, r_max: float) -> "RadialGrid":
        """A Gauss-Legendre rule (x, w) on [-1, 1], from legendre_rule, mapped to [0, r_max].

        Callers that need one node count on several ranges build the rule once.
        """
        if r_max <= 0:
            raise ConfigurationError("radial grid needs n > 0 and r_max > 0")
        nodes, weights = _affine(rule, 0.0, r_max)
        return RadialGrid(nodes, weights, float(r_max))

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class BoundaryGrid:
    """Directions on S^{d-1} with weights normalized to total mass 1.

    dim == 2: uniform angles, weight 1/M each.
    dim == 3: Gauss-Legendre in cos(theta) times uniform azimuth.

    ``layout`` is (n_rows, n_phi) on the grids of ``disk`` (one row) and
    ``sphere``, whose rows are uniform in azimuth, which makes kernels of the
    angle between two grid directions circulant in the azimuth difference;
    any other set of directions, a rotated or permuted copy among them,
    carries None.
    """

    dim: int
    directions: np.ndarray  # (m, dim) unit vectors
    weights: np.ndarray  # (m,), sums to 1
    layout: tuple = None

    @staticmethod
    def disk(n: int) -> "BoundaryGrid":
        if n <= 0:
            raise ConfigurationError("boundary grid needs n > 0")
        theta = 2.0 * np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return BoundaryGrid(2, dirs, np.full(n, 1.0 / n), (1, n))

    @staticmethod
    def sphere(n_theta: int, n_phi: int) -> "BoundaryGrid":
        if n_theta <= 0 or n_phi <= 0:
            raise ConfigurationError("boundary grid needs positive node counts")
        mu, w_mu = legendre_rule(n_theta)  # mu = cos(theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        sin_theta = np.sqrt(1.0 - mu**2)
        dirs = np.empty((n_theta * n_phi, 3))
        weights = np.empty(n_theta * n_phi)
        for i in range(n_theta):
            sl = slice(i * n_phi, (i + 1) * n_phi)
            dirs[sl, 0] = sin_theta[i] * np.cos(phi)
            dirs[sl, 1] = sin_theta[i] * np.sin(phi)
            dirs[sl, 2] = mu[i]
            weights[sl] = w_mu[i] / (2.0 * n_phi)
        return BoundaryGrid(3, dirs, weights, (n_theta, n_phi))

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class BumpSpec:
    """Analytic compactly supported test function.

    value(x) = profile(dist(c, x) / radius) * (1 + alpha * rel_0 / tanh(radius / 2))

    where c = center . origin, rel = center^{-1} x in ball coordinates, rel_0
    its first coordinate, and profile(s) = exp(-1/(1-s^2)) for |s| < 1 (or
    the sharp indicator 1_{s<1} for the non-smooth control profile).  On the
    support |rel| <= tanh(radius / 2), so the modulation spans
    [1 - alpha, 1 + alpha]; it is linear in rel, so the smooth bump is smooth
    at its centre too, and it is the K-type of degree 1 about the centre.
    With a rotation R as the center's first move the modulation runs along
    R e_1 about the centre.
    """

    dim: int
    radius: float
    center: Isometry = None
    alpha: float = 0.0
    profile: str = "smooth"

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigurationError(f"bump dimension must be 2 or 3, got {self.dim!r}")
        if not self.radius > 0:
            raise ConfigurationError("bump radius must be positive")
        if self.center is None:
            object.__setattr__(self, "center", Isometry.identity(self.dim))
        if self.center.dim != self.dim:
            raise ConfigurationError(f"bump center acts in dimension {self.center.dim}, not {self.dim}")
        if not abs(self.alpha) <= 1.0:
            raise ConfigurationError("angular modulation |alpha| must be <= 1")
        if self.profile not in ("smooth", "indicator"):
            raise ConfigurationError(f"unknown bump profile {self.profile!r}")

    @property
    def center_offset(self) -> float:
        """Hyperbolic distance from the origin to the bump center."""
        return dist(np.zeros(self.dim), self.center.origin_image())

    @property
    def support_radius(self) -> float:
        """Circumscribed radius about the origin: dist(0, center) + radius."""
        return self.center_offset + self.radius

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at coordinate array (..., dim)."""
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        rel = apply_array(self.center.inverse(), flat)
        norms = np.linalg.norm(rel, axis=1)
        r_rel = 2.0 * np.arctanh(np.minimum(norms, 1.0 - 1e-15))
        s = r_rel / self.radius
        vals = np.zeros(len(flat))
        inside = s < 1.0
        if self.profile == "smooth":
            vals[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        else:
            vals[inside] = 1.0
        if self.alpha != 0.0:
            vals = vals * (1.0 + self.alpha * rel[:, 0] / np.tanh(0.5 * self.radius))
        return vals.reshape(shape)


@dataclass(eq=False)
class SampledFunction:
    """Test function sampled on a radial x boundary product grid."""

    dim: int
    radial: RadialGrid
    boundary: BoundaryGrid
    values: np.ndarray  # (n_r, m) complex
    support_radius: float
    bump: BumpSpec = None

    @property
    def support_mask(self) -> np.ndarray:
        return self.radial.nodes <= self.support_radius

    def radial_weights(self) -> np.ndarray:
        """S_{d-1} w_i sinh^{d-1}(r_i) of each radial node, shape (n_r,)."""
        return sphere_area(self.dim) * (self.radial.weights * volume_weight(self.radial.nodes, self.dim))

    def node_weights(self) -> np.ndarray:
        """Quadrature weights of dmu on the grid, shape (n_r, m): radial_weights x boundary weights."""
        return self.radial_weights()[:, None] * self.boundary.weights[None, :]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Off-grid evaluation through the analytic descriptor (required)."""
        if self.bump is None:
            raise ConfigurationError(
                "off-grid evaluation requires an analytic bump descriptor"
            )
        return self.bump(points)

    def is_radial(self) -> bool:
        """True when samples are boundary-independent (K-invariant function)."""
        spread = np.max(np.abs(self.values - self.values.mean(axis=1, keepdims=True)))
        scale = max(1.0, np.max(np.abs(self.values)))
        return bool(spread <= _RADIAL_TOL * scale)

    def radial_profile(self) -> np.ndarray:
        return self.values.mean(axis=1)


def sample_bump(spec: BumpSpec, radial: RadialGrid, boundary: BoundaryGrid) -> SampledFunction:
    """Sample a bump on the product grid; its support must fit inside the rule's [0, r_max].

    Only the support rows are evaluated, at the coordinates tanh(r/2) omega,
    in row blocks of about BLOCK samples: the coordinates and the
    temporaries of the bump's evaluation stay block-sized, and each sample
    is the value the whole-array evaluation gives, bit for bit.  The rows
    beyond the support, if any, are exact zeros.
    """
    if spec.dim != boundary.dim:
        raise ConfigurationError(f"a d = {spec.dim} bump cannot be sampled on a d = {boundary.dim} boundary grid")
    if spec.support_radius > radial.r_max:
        raise ConfigurationError(
            f"bump support radius {spec.support_radius:.3f} exceeds r_max {radial.r_max}"
        )
    values = np.zeros((len(radial), len(boundary)), dtype=complex)
    f = SampledFunction(spec.dim, radial, boundary, values, spec.support_radius, bump=spec)
    rows = np.flatnonzero(f.support_mask)
    t = np.tanh(0.5 * radial.nodes[rows])
    step = max(1, BLOCK // len(boundary))
    for i in range(0, len(rows), step):
        values[rows[i : i + step]] = spec(t[i : i + step, None, None] * boundary.directions)
    return f


def k_average_profile(f: SampledFunction, post_map: Isometry) -> SampledFunction:
    """Materialize the K-average of f o post_map as a boundary-independent sampled function.

    The average is supported on [0, support_radius + d(o, post_map . o)] and
    is sampled on its own Gauss-Legendre rule over that range, at the node
    density of f's support rows: a fitted f with post_map . o = o gets its
    own rule back, bit for bit.
    """
    shift = dist(np.zeros(f.dim), post_map.origin_image())
    support = f.support_radius + shift
    n = int(np.ceil(np.count_nonzero(f.support_mask) * support / f.support_radius))
    radial = RadialGrid.gauss_legendre(n, support)
    prof = np.empty(n, dtype=complex)
    for i, ti in enumerate(np.tanh(0.5 * radial.nodes)):
        pts = apply_array(post_map, ti * f.boundary.directions)
        prof[i] = np.sum(f.boundary.weights * f.evaluate(pts))
    values = np.repeat(prof[:, None], len(f.boundary), axis=1)
    return SampledFunction(f.dim, radial, f.boundary, values, support, bump=None)
