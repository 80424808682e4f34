"""Quick self-contained invariant suite for the ``selftest`` subcommand.

Runs in a few seconds and covers one representative identity per subsystem;
the full pytest suite remains the authoritative check.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..estimators import (
    LrePlan,
    physical_projection_fast,
    qdt_stage1,
    qpt_stage2_tp,
)
from ..fidelity import fidelity, fidelity_dp, detector_scenario, fuchs_check
from ..measurement import (
    SeededRng,
    exact_detector_sampler,
    exact_state_sampler,
    frequencies,
    pauli_cube,
    sample_counts,
)
from ..quantum_objects import (
    DensityMatrix,
    KrausChannel,
    Povm,
    choi_state,
    kraus_to_process,
)


def _random_density(gen, d) -> DensityMatrix:
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _checks():
    gen = SeededRng(1234).generator()

    a, b, c = (
        gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        for _ in range(3)
    )
    lhs = linalg.vec(a @ b @ c)
    rhs = linalg.kron(c.T, a) @ linalg.vec(b)
    yield "vec(ABC) identity", np.allclose(lhs, rhs, atol=1e-9)

    ch = KrausChannel(
        (np.diag([1.0, np.sqrt(0.4)]).astype(complex),
         np.diag([0.0, np.sqrt(0.6)]).astype(complex))
    )
    x = kraus_to_process(ch).x
    rho_e = choi_state(ch).mat
    yield "process matrix = d * Choi state", np.allclose(x, 2 * rho_e, atol=1e-9)

    tilt = np.diag([0.7, 0.4, -0.1]).astype(complex)
    lam = np.linalg.eigvalsh(physical_projection_fast(tilt).mat)[::-1]
    yield "simplex projection", np.allclose(lam, [0.65, 0.35, 0.0], atol=1e-12)

    g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    g = g @ g.conj().T
    q = linalg.partial_trace_1(qpt_stage2_tp(g, 2).x, 2, 2)
    yield "stage-2 partial trace", np.allclose(q, np.eye(2), atol=1e-8)

    r1, r2 = _random_density(gen, 4), _random_density(gen, 4)
    yield "Fuchs-van de Graaf", fuchs_check(r1.mat, r2.mat).holds

    eye = np.eye(2, dtype=complex)
    distorted = fidelity_dp(eye / 3, eye / 4)
    fixed = fidelity(eye / 3, eye / 4, detector_scenario(2))
    yield "distortion fix", abs(distorted - 1.0) < 1e-10 and fixed < 1.0 - 1e-4

    cube = pauli_cube(2)
    rho = _random_density(gen, 4)
    # every setting's outcome probabilities sum to the trace
    table = cube.probabilities(rho.mat)
    complete = np.allclose(table.sum(axis=1), 1.0, atol=1e-12)
    yield "cube completeness", complete and table.shape == (9, 4)

    pseudo = DensityMatrix(0.6 * rho.mat, sub_unit=True)
    recovered = True
    for state, constrain in ((rho, True), (pseudo, False)):
        freqs = frequencies(exact_state_sampler(state).counts(cube))
        est = LrePlan(cube, constrain).solve(freqs)
        recovered &= bool(np.allclose(est, state.mat, atol=1e-12))
    yield "cube inversion recovers a noiseless state", recovered

    # a three-outcome detector; probing it with the cube's eigenstates gives
    # each element's Born table, which the same inversion maps back
    half = rho.mat / 2.0
    detector = Povm((half, np.eye(4) - rho.mat, half))
    freqs = frequencies(exact_detector_sampler(detector).counts(cube))
    elements = qdt_stage1(freqs, cube)
    recovered = all(
        np.allclose(e, p, atol=1e-12) for e, p in zip(elements, detector.elements)
    )
    yield "detector cube inversion recovers a noiseless POVM", recovered

    c1 = sample_counts([0.25, 0.25, 0.5], 10_000, SeededRng(9, 3))
    c2 = sample_counts([0.25, 0.25, 0.5], 10_000, SeededRng(9, 3))
    yield "seeded determinism", bool(np.array_equal(c1, c2))


def run_selftest() -> int:
    failures = 0
    for name, ok in _checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0
