"""Construction of the drifted auxiliary walk and its change of measure.

For a target velocity z with 0 < |z|_1 < 1 and marginal means m(e), the scale
constant C solves

    f(C) = 1/2 * sum_e sqrt(<z,e>^2 + 4 C m(e) m(-e)) = 1,

which exists and is unique because f is continuous, strictly increasing, with
f(0) = |z| < 1 and f(inf) = inf. The step law of the auxiliary walk is

    u(e) = ( <z,e> + sqrt(<z,e>^2 + 4 C m(e) m(-e)) ) / 2,

a probability vector with mean drift exactly z, and it factorizes as
u(e) = D * exp(<theta, e>) * m(e) with D = sqrt(C). That factorization is what
turns exponentially tilted expectations of the original walk into plain
expectations of the auxiliary walk, and it is verified here by exact
enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .environments import Environment, direction_vectors
from .numutil import fsum
from .walks import path_sites, realized_log_xi, site_grouped_log_moment, step_matrix

SOLVE_RESIDUAL_TOL = 1e-12
MAX_BISECT_ITER = 200


@dataclass(frozen=True)
class TiltParams:
    """Derived quantities of the auxiliary walk for one target velocity.

    Attributes
    ----------
    z : target velocity, shape (d,), 0 < |z|_1 < 1.
    C : positive root of the scale equation f(C) = 1.
    u : step law of the auxiliary walk over the 2d directions.
    theta : tilt vector; u(e) = D * exp(<theta, e>) * m(e) for all e.
    D : sqrt(C), the per-step normalizer of the change of measure.
    c_z : min_e u(e) > 0.
    residual : |f(C) - 1| at the returned root.
    means : the marginal means the construction was built from.
    """

    z: tuple
    C: float
    u: tuple
    theta: tuple
    D: float
    c_z: float
    residual: float
    means: tuple

    @property
    def dimension(self) -> int:
        return len(self.z)

    @property
    def u_array(self) -> np.ndarray:
        return np.asarray(self.u, dtype=np.float64)

    @property
    def theta_array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=np.float64)

    @property
    def means_array(self) -> np.ndarray:
        return np.asarray(self.means, dtype=np.float64)

    def to_dict(self) -> dict:
        return {
            "z": list(self.z), "C": self.C, "u": list(self.u),
            "theta": list(self.theta), "D": self.D, "c_z": self.c_z,
            "residual": self.residual, "means": list(self.means),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TiltParams":
        return cls(tuple(d["z"]), float(d["C"]), tuple(d["u"]), tuple(d["theta"]),
                   float(d["D"]), float(d["c_z"]), float(d["residual"]), tuple(d["means"]))


def _zdots(z: np.ndarray, d: int) -> np.ndarray:
    return direction_vectors(d) @ z


def scale_function(C: float, z: np.ndarray, means: np.ndarray) -> float:
    """f(C); strictly increasing in C for valid means."""
    d = len(z)
    zd = _zdots(z, d)
    opp = means[np.arange(2 * d) ^ 1]
    return 0.5 * float(np.sum(np.sqrt(zd**2 + 4.0 * C * means * opp)))


def solve_tilt(law_or_means, z, tol: float = SOLVE_RESIDUAL_TOL) -> TiltParams:
    """Solve the scale equation by bisection and assemble the tilt parameters.

    ``law_or_means`` is an environment law or a raw array of marginal means.
    Rejects z = 0 and |z|_1 >= 1, where the construction degenerates.
    """
    z = np.asarray(z, dtype=np.float64)
    d = z.size
    z1 = float(np.abs(z).sum())
    if z1 == 0.0:
        raise ValueError("z = 0 is rejected; the construction needs a nonzero velocity")
    if z1 >= 1.0:
        raise ValueError(f"|z|_1 = {z1} must be < 1")
    if isinstance(law_or_means, np.ndarray) or isinstance(law_or_means, (list, tuple)):
        means = np.asarray(law_or_means, dtype=np.float64)
    else:
        means = law_or_means.marginal_means()
    if means.shape != (2 * d,):
        raise ValueError(f"means must have shape ({2 * d},)")
    if means.min() <= 0.0:
        raise ValueError("marginal means must be strictly positive")

    # bracket the root, then bisect; f is monotone so this cannot fail
    lo, hi = 0.0, 1.0
    while scale_function(hi, z, means) < 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the scale root")
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if scale_function(mid, z, means) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    C = 0.5 * (lo + hi)
    residual = abs(scale_function(C, z, means) - 1.0)
    if residual > max(tol, 1e-12):
        raise RuntimeError(f"scale root residual {residual} above tolerance")

    zd = _zdots(z, d)
    opp = means[np.arange(2 * d) ^ 1]
    u = 0.5 * (zd + np.sqrt(zd**2 + 4.0 * C * means * opp))
    D = math.sqrt(C)
    theta = np.log(u[0::2] / (D * means[0::2]))  # components read off the +e_j directions
    return TiltParams(
        z=tuple(float(v) for v in z), C=float(C), u=tuple(float(v) for v in u),
        theta=tuple(float(v) for v in theta), D=D, c_z=float(u.min()),
        residual=float(residual), means=tuple(float(v) for v in means),
    )


def tilt_invariant_residuals(tp: TiltParams) -> dict:
    """Numerical residuals of every defining identity of the construction.

    Keys map to the checks: step law normalization, the defining formula for
    u, the product identity u(e)u(-e) = C m(e) m(-e), the mean drift, the
    change-of-measure factorization, and positivity of the floor c_z.
    """
    d = tp.dimension
    z = np.asarray(tp.z)
    u = tp.u_array
    means = tp.means_array
    zd = _zdots(z, d)
    opp = means[np.arange(2 * d) ^ 1]
    vecs = direction_vectors(d)
    theta_dot = vecs @ tp.theta_array
    return {
        "u_normalized": abs(float(u.sum()) - 1.0),
        "u_formula": float(np.max(np.abs(2.0 * u - (zd + np.sqrt(zd**2 + 4.0 * tp.C * means * opp))))),
        "u_opposite_product": float(np.max(np.abs(u * u[np.arange(2 * d) ^ 1] - tp.C * means * opp))),
        "mean_drift": float(np.max(np.abs(u @ vecs - z))),
        "factorization": float(np.max(np.abs(u - tp.D * np.exp(theta_dot) * means))),
        "floor_positive": 0.0 if (tp.c_z > 0.0 and abs(tp.c_z - float(u.min())) == 0.0) else float("inf"),
        "scale_residual": tp.residual,
    }


def zero_disorder_free_energy(tp: TiltParams, theta) -> float:
    """log sum_e exp(<theta, e>) u(e): the limit free energy when xi == 1."""
    theta = np.asarray(theta, dtype=np.float64)
    vecs = direction_vectors(tp.dimension)
    return float(np.log(np.sum(np.exp(vecs @ theta) * tp.u_array)))


def verify_identity_annealed(law, tp: TiltParams, theta, n: int) -> tuple:
    """Both sides of the annealed change-of-measure identity, by enumeration.

    lhs: auxiliary-walk expectation of exp(<theta, Z_n>) times the exact
    annealed moment of the xi-product along the path.
    rhs: D^n times the annealed expectation of exp(<theta + theta_tilt, X_n>),
    computed from the original walk with exact annealed path weights.
    """
    theta = np.asarray(theta, dtype=np.float64)
    steps = step_matrix(n, tp.dimension)
    flat, ends = path_sites(steps, tp.dimension)
    uw = np.prod(tp.u_array[steps], axis=1)
    _, xi_log = site_grouped_log_moment(law.xi_values(), law.weights, flat, steps)
    _, om_log = site_grouped_log_moment(law.atoms, law.weights, flat, steps)
    lhs = fsum(uw * np.exp(xi_log + ends @ theta))
    rhs = tp.D**n * fsum(np.exp(om_log + ends @ (theta + tp.theta_array)))
    return lhs, rhs


def verify_identity_quenched(env: Environment, tp: TiltParams, theta, n: int) -> tuple:
    """Quenched version: xi and omega read from one fixed realization."""
    theta = np.asarray(theta, dtype=np.float64)
    steps = step_matrix(n, tp.dimension)
    flat, ends = path_sites(steps, tp.dimension)
    uw = np.prod(tp.u_array[steps], axis=1)
    xi_prod = np.exp(realized_log_xi(env, tp.means_array, n)[flat, steps].sum(axis=1))
    om_prod = xi_prod * np.prod(tp.means_array[steps], axis=1)
    lhs = fsum(uw * xi_prod * np.exp(ends @ theta))
    rhs = tp.D**n * fsum(om_prod * np.exp(ends @ (theta + tp.theta_array)))
    return lhs, rhs
