"""Benchmark targets for the scaling experiments.

Every built-in target that involves randomness draws its unitaries (or its
probe input state) from dedicated streams of the given seed, so a target is
fixed across all repetitions of a run and reproducible across machines.
Shot noise is then the only randomness inside a trial.

A target holds its ``task``, the ``oracle`` that hides it and the constants
a trial scores against (true ranks, the truth with its square root, the
fidelity scenario); each is computed on first access and kept, so every
trial of a run shares them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..fidelity import (
    FidelityScenario,
    Truth,
    detector_scenario,
    process_scenario,
    state_scenario,
)
from ..linalg import DimensionError, eig_reconstruct, haar_unitary
from ..measurement import SeededRng, detector_sampler, state_sampler
from ..quantum_objects import (
    BipartitePureState,
    DensityMatrix,
    KrausChannel,
    Povm,
    ProcessMatrix,
    apply_extended_channel,
    kraus_to_process,
    maximally_entangled_input,
)
from .config import TARGET_STREAM_BASE

DEFAULT_TARGET_SEED = 20240901
_RANK_TOL = 1e-10


def _ranks(eigenvalues: np.ndarray) -> np.ndarray:
    """Numerical rank from a spectrum, or from each row of a stack of spectra."""
    return np.sum(eigenvalues > _RANK_TOL, axis=-1)


@dataclass(frozen=True)
class QstTarget:
    name: str
    rho: DensityMatrix
    task = "qst"

    @property
    def dim(self) -> int:
        return self.rho.dim

    @cached_property
    def rank(self) -> int:
        return int(_ranks(self.rho.eigenvalues))

    @cached_property
    def truth(self) -> Truth:
        return Truth.of(self.rho.mat)

    @cached_property
    def scenario(self) -> FidelityScenario:
        return state_scenario()

    @cached_property
    def oracle(self):
        """Oracle of ``rho``; it computes its cube table once and keeps it."""
        return state_sampler(self.rho)


@dataclass(frozen=True)
class QdtTarget:
    name: str
    povm: Povm
    task = "qdt"

    @property
    def dim(self) -> int:
        return self.povm.dim

    @cached_property
    def element_ranks(self) -> tuple:
        return tuple(_ranks(self.povm.eigenvalues).tolist())

    @cached_property
    def truth(self) -> Truth:
        return Truth.of(self.povm.elements)

    @cached_property
    def scenario(self) -> FidelityScenario:
        return detector_scenario(self.dim)

    @cached_property
    def oracle(self):
        """Oracle of ``povm``; it computes its cube table once and keeps it."""
        return detector_sampler(self.povm)


@dataclass(frozen=True)
class AaptTarget:
    name: str
    channel: KrausChannel
    input_state: BipartitePureState
    task = "aapt"

    def __post_init__(self):
        probe = self.input_state
        if probe.dim_a != self.dim or probe.dim_b != self.dim:
            raise DimensionError(
                "input state must be on channel (x) ancilla of equal dimensions"
            )
        probe.probe_inverse  # raises DegenerateInputError unless full-Schmidt

    @property
    def dim(self) -> int:
        return self.channel.dim

    @property
    def tp(self) -> bool:
        return self.channel.tp_flag

    @cached_property
    def process(self) -> ProcessMatrix:
        return kraus_to_process(self.channel)

    @cached_property
    def rank(self) -> int:
        return int(_ranks(self.process.eigenvalues))

    @cached_property
    def truth(self) -> Truth:
        return Truth.of(self.process.x)

    @cached_property
    def scenario(self) -> FidelityScenario:
        return process_scenario(self.dim)

    @cached_property
    def sigma_out(self) -> DensityMatrix:
        return apply_extended_channel(self.channel, self.input_state.density())

    @cached_property
    def sigma_out_truth(self) -> Truth:
        return Truth.of(self.sigma_out.mat)

    @property
    def known_trace(self) -> float:
        return self.sigma_out.trace

    @cached_property
    def oracle(self):
        """Oracle of ``sigma_out``; it computes its cube table once and keeps it."""
        return state_sampler(self.sigma_out)


def _target_rng(seed: int, index: int) -> np.random.Generator:
    return SeededRng(seed, stream_id=TARGET_STREAM_BASE + index).generator()


def _qst_from_profile(name, eigenvalues, seed, stream) -> QstTarget:
    d = len(eigenvalues)
    u = haar_unitary(d, _target_rng(seed, stream))
    rho = DensityMatrix(eig_reconstruct(np.asarray(eigenvalues, float), u))
    return QstTarget(name, rho)


def _qst_rank1(seed):
    return _qst_from_profile("qst-rank1-8d", [1.0] + [0.0] * 7, seed, 1)


def _qst_rank1_64d(seed):
    return _qst_from_profile("qst-rank1-64d", [1.0] + [0.0] * 63, seed, 8)


def _qst_rank1_256d(seed):
    return _qst_from_profile("qst-rank1-256d", [1.0] + [0.0] * 255, seed, 9)


def _qst_rank2(seed):
    return _qst_from_profile("qst-rank2-8d", [0.5, 0.5] + [0.0] * 6, seed, 2)


def _qst_rank4(seed):
    return _qst_from_profile("qst-rank4-8d", [0.25] * 4 + [0.0] * 4, seed, 3)


def _qst_rank2_degenerate(seed):
    # same degenerate spectrum as qst-rank2-8d under an independent unitary;
    # exercises estimators that must not depend on any eigenbasis choice
    # inside the degenerate block
    return _qst_from_profile("qst-rank2-degenerate", [0.5, 0.5] + [0.0] * 6, seed, 4)


def _three_valued(name, d, seed, streams) -> QdtTarget:
    # a rank-1 element 0.4 |u><u|, a rank-1 element 0.5 |v><v| and the
    # full-rank rest
    u1 = haar_unitary(d, _target_rng(seed, streams[0]))
    u2 = haar_unitary(d, _target_rng(seed, streams[1]))
    p1 = eig_reconstruct(np.array([0.4] + [0.0] * (d - 1)), u1)
    p2 = u2 @ np.diag([0.0, 0.5] + [0.0] * (d - 2)).astype(complex) @ u2.conj().T
    p3 = np.eye(d) - p1 - p2
    return QdtTarget(name, Povm((p1, p2, p3)))


def _qdt_three_valued(seed):
    return _three_valued("qdt-three-valued", 4, seed, (5, 6))


def _qdt_three_valued_8d(seed):
    return _three_valued("qdt-three-valued-8d", 8, seed, (10, 11))


def _qdt_three_valued_16d(seed):
    return _three_valued("qdt-three-valued-16d", 16, seed, (12, 13))


def _aapt_hadamard(seed):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    return AaptTarget(
        "aapt-hadamard", KrausChannel((h,)), maximally_entangled_input(2)
    )


def _phase_damping(lam: float) -> KrausChannel:
    a1 = np.diag([1.0, np.sqrt(1.0 - lam)]).astype(complex)
    a2 = np.diag([0.0, np.sqrt(lam)]).astype(complex)
    return KrausChannel((a1, a2))


def _aapt_damping_0989(seed):
    return AaptTarget(
        "aapt-damping-0.989", _phase_damping(0.989), maximally_entangled_input(2)
    )


def _random_full_schmidt_probe(gen, d: int, min_coeff: float = 0.35) -> BipartitePureState:
    """Seeded random pure probe, conditioned away from Schmidt degeneracy.

    The ancilla inversion divides by the Schmidt coefficients, so a draw with
    a tiny coefficient makes the benchmark constant-factor pathological while
    still being formally full-Schmidt.  Rejecting such draws keeps the target
    well conditioned for every seed; the draw stays fixed given the seed.
    """
    for _ in range(1000):
        amp = gen.standard_normal(d * d) + 1j * gen.standard_normal(d * d)
        probe = BipartitePureState(amp / np.linalg.norm(amp), d, d)
        if probe.coefficients[-1] >= min_coeff:
            return probe
    raise RuntimeError("could not draw a well-conditioned full-Schmidt probe")


def _aapt_damping_third(seed):
    # lossy dephasing: both Kraus operators damp the |1> amplitude by
    # sqrt(1/3), so the channel is completely positive but not
    # trace-preserving (sum A^dag A = diag(1, 2/3))
    a1 = np.diag([1.0, np.sqrt(1.0 / 3.0)]).astype(complex)
    a2 = np.diag([0.0, np.sqrt(1.0 / 3.0)]).astype(complex)
    probe = _random_full_schmidt_probe(_target_rng(seed, 7), 2)
    return AaptTarget("aapt-damping-third", KrausChannel((a1, a2)), probe)


def _aapt_toffoli(seed):
    # a 3-qubit unitary channel: d_out = 64 and a rank-1 process matrix
    u = np.eye(8, dtype=complex)
    u[6:, 6:] = [[0, 1], [1, 0]]
    return AaptTarget("aapt-toffoli", KrausChannel((u,)), maximally_entangled_input(8))


_BUILTIN = {
    "qst-rank1-8d": _qst_rank1,
    "qst-rank1-64d": _qst_rank1_64d,
    "qst-rank1-256d": _qst_rank1_256d,
    "qst-rank2-8d": _qst_rank2,
    "qst-rank4-8d": _qst_rank4,
    "qst-rank2-degenerate": _qst_rank2_degenerate,
    "qdt-three-valued": _qdt_three_valued,
    "qdt-three-valued-8d": _qdt_three_valued_8d,
    "qdt-three-valued-16d": _qdt_three_valued_16d,
    "aapt-hadamard": _aapt_hadamard,
    "aapt-damping-0.989": _aapt_damping_0989,
    "aapt-damping-third": _aapt_damping_third,
    "aapt-toffoli": _aapt_toffoli,
}

BUILTIN_TARGET_NAMES = tuple(_BUILTIN)


def builtin_target(name: str, seed: int = DEFAULT_TARGET_SEED):
    """Construct a named benchmark target, fixed given (name, seed)."""
    try:
        factory = _BUILTIN[name]
    except KeyError:
        known = ", ".join(BUILTIN_TARGET_NAMES)
        raise ValueError(f"unknown target {name!r}; built-ins: {known}") from None
    return factory(seed)


def _complex_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrices must be nested [[...[re, im]...]] lists")
    return arr[..., 0] + 1j * arr[..., 1]


def load_target(path: str):
    """Load a target from a JSON file.

    Schema: ``{"task": "qst", "density": M}``, ``{"task": "qdt",
    "elements": [M, ...]}`` or ``{"task": "aapt", "kraus": [M, ...],
    "input_amplitudes": [[re, im], ...]}`` where each matrix entry is an
    ``[re, im]`` pair.  An omitted aapt input defaults to the maximally
    entangled state.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    task = data.get("task")
    name = data.get("name", os.path.basename(path))
    if task == "qst":
        return QstTarget(name, DensityMatrix(_complex_matrix(data["density"])))
    if task == "qdt":
        elems = tuple(_complex_matrix(m) for m in data["elements"])
        return QdtTarget(name, Povm(elems))
    if task == "aapt":
        ops = tuple(_complex_matrix(m) for m in data["kraus"])
        channel = KrausChannel(ops)
        if "input_amplitudes" in data:
            amp = np.asarray(data["input_amplitudes"], dtype=float)
            amp = amp[:, 0] + 1j * amp[:, 1]
            probe = BipartitePureState(amp, channel.dim, channel.dim)
        else:
            probe = maximally_entangled_input(channel.dim)
        return AaptTarget(name, channel, probe)
    raise ValueError(f"target file {path} has unknown task {task!r}")


def resolve_target(spec: str, seed: int = DEFAULT_TARGET_SEED):
    """Builtin name, or a path to a JSON target file."""
    if spec not in _BUILTIN and (spec.endswith(".json") or os.path.sep in spec):
        if not os.path.exists(spec):
            raise FileNotFoundError(f"target file {spec} does not exist")
        return load_target(spec)
    return builtin_target(spec, seed)
