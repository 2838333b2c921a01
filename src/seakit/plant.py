"""Linear models of a velocity-sourced cable-driven series elastic actuator.

The drivetrain is a motor under a stiff inner velocity loop (PI, gains
K_pv/K_iv) pulling a winch of radius r_winch against a pair of springs
with combined rotational stiffness K_s; the spring deflection is the
torque sensor.  With the inner loop folded in, the dynamics from the
velocity command omega_d [rad/s] and the load-side motion phi_L [rad]
to the delivered torque tau_L [Nm] are

    tau_L = P(s) omega_d + G(s) phi_L

    P(s) = (K_s K_pv s + K_s K_iv) / (J_A s^3 + (b_f + K_pv) s^2
                                      + (K_s + K_iv) s)
    G(s) = -(J_A K_s s^2 + K_s (b_f + K_pv) s + K_s K_iv)
           / (J_A s^2 + (b_f + K_pv) s + (K_s + K_iv))

P carries a free integrator (position is the integral of the commanded
velocity), so torque control of P is type 1 by construction.  Both paths
run through the same actuator dynamics, den(P) = s den(G); ``SeaModel``
enforces this, and the simulator realizes P and G as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomials import Polynomial
from .transfer import RationalTF

__all__ = [
    "SeaParams",
    "SeaModel",
    "default_params",
    "build_plant",
]


@dataclass(frozen=True)
class SeaParams:
    """Physical constants of the actuator.

    Attributes
    ----------
    j_a : float
        Actuator-side inertia [kg m^2].
    b_f : float
        Viscous friction coefficient [Nm s/rad].
    k_s : float
        Combined rotational spring stiffness [Nm/rad].
    r_winch : float
        Winch radius [m]; converts cable force to torque.
    k_g : float
        Gearbox reduction ratio [-].
    k_pv, k_iv : float
        Proportional/integral gains of the inner velocity loop.
    """

    j_a: float
    b_f: float
    k_s: float
    r_winch: float
    k_g: float
    k_pv: float
    k_iv: float

    def __post_init__(self):
        for name in ("j_a", "b_f", "k_s", "r_winch", "k_g", "k_pv", "k_iv"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("j_a", "k_s", "r_winch", "k_g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("b_f", "k_pv", "k_iv"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class SeaModel:
    """Plant pair for one parameter set: drive path P and coupling path G.

    Raises ValueError unless P is strictly proper and den(P) = s den(G)
    coefficient for coefficient: the velocity-sourced actuator drives
    both paths through the same dynamics, and its position integrates
    the commanded velocity.
    """

    P: RationalTF
    G: RationalTF
    params: SeaParams

    def __post_init__(self):
        if not self.P.is_strictly_proper():
            raise ValueError("drive path P must be strictly proper")
        if self.P.den != self.G.den * Polynomial([1.0, 0.0]):
            raise ValueError(
                "plant pair must share the actuator: den(P) = s den(G)"
            )


def default_params() -> SeaParams:
    """Constants of the benchtop actuator this toolkit was tuned on.

    Two antagonistic springs of 0.0242 Nm/rad each act in series on the
    sensing pulley, so k_s is their 0.0484 Nm/rad sum.
    """
    return SeaParams(
        j_a=6.90e-4,
        b_f=0.0059,
        k_s=2 * 0.0242,
        r_winch=7.25e-3,
        k_g=14.0,
        k_pv=0.0457,
        k_iv=1.3455,
    )


def build_plant(params: SeaParams) -> SeaModel:
    """Assemble P(s) and G(s) from physical constants.

    Both transfer functions are normalized to monic denominators on
    construction; the classical coefficient forms in the module docstring
    stay available as ``tf.num * lead`` if ever needed for display.
    """
    j, bf, ks = params.j_a, params.b_f, params.k_s
    kpv, kiv = params.k_pv, params.k_iv
    p = RationalTF(
        [ks * kpv, ks * kiv],
        [j, bf + kpv, ks + kiv, 0.0],
    )
    g = RationalTF(
        [-j * ks, -ks * (bf + kpv), -ks * kiv],
        [j, bf + kpv, ks + kiv],
    )
    return SeaModel(P=p, G=g, params=params)
