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
expectations of the auxiliary walk; ``identities`` checks it by exact
enumeration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .environments import IIDProductLaw, direction_vectors
from .numutil import BudgetError

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


def _zdots(z: np.ndarray, d: int) -> np.ndarray:
    return direction_vectors(d) @ z


def scale_function(C: float, z: np.ndarray, means: np.ndarray) -> float:
    """f(C); strictly increasing in C for valid means."""
    d = len(z)
    zd = _zdots(z, d)
    opp = means[np.arange(2 * d) ^ 1]
    return 0.5 * float(np.sum(np.sqrt(zd**2 + 4.0 * C * means * opp)))


def solve_tilt(law, z) -> TiltParams:
    """Solve the scale equation for the marginal means of ``law`` and assemble the tilt.

    z has ``law.dimension`` entries. Rejects z = 0 and |z|_1 >= 1, where the
    construction degenerates. f(C) >= sqrt(C) S with S = sum_e sqrt(m(e) m(-e)),
    so doubling from C = 1 brackets the root by 1/S^2, and f's 4 C stays below
    4/S^2; where that is no finite double, BudgetError names the law's rows.
    """
    z = np.asarray(z, dtype=np.float64)
    d = law.dimension
    if z.shape != (d,):
        raise ValueError(f"z = {z.tolist()} must have law.dimension = {d} entries")
    z1 = float(np.abs(z).sum())
    if z1 == 0.0:
        raise ValueError("z = 0 is rejected; the construction needs a nonzero velocity")
    if z1 >= 1.0:
        raise ValueError(f"|z|_1 = {z1} must be < 1")
    means = law.means
    opp = means[np.arange(2 * d) ^ 1]
    if not (S := float(np.sqrt(means * opp).sum())) ** 2 >= 4.0 / sys.float_info.max:
        key = "law.atoms" if isinstance(law, IIDProductLaw) else "law.states"
        raise BudgetError(f"{key}: the scale root lies below 1/S^2, where S = sum_e "
                          f"sqrt(m(e) m(-e)) = {S:.3g} makes 4/S^2 no finite double")

    # bracket the root, then bisect; f is monotone so this cannot fail
    lo, hi = 0.0, 1.0
    while scale_function(hi, z, means) < 1.0:
        hi *= 2.0
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
    if residual > SOLVE_RESIDUAL_TOL:
        raise RuntimeError(f"scale root residual {residual} above tolerance")

    zd = _zdots(z, d)
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
