"""Adaptive quantum state, detector and process tomography.

Simulation library for tomography with provably optimal O(1/N) infidelity
scaling: least-squares reconstruction, physical projections, two-step
adaptive state/detector protocols, three-step adaptive ancilla-assisted
process tomography, the distortion-free fidelity family, and a seeded
Monte-Carlo harness that measures infidelity-versus-copies scaling.
"""

__version__ = "0.1.0"  # read by the harness; set before the submodules import it

from . import estimators, fidelity, linalg, measurement, quantum_objects

__all__ = ["estimators", "fidelity", "linalg", "measurement", "quantum_objects"]
