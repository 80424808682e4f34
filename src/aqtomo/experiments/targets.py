"""Benchmark targets for the scaling experiments.

Every built-in target that involves randomness draws its unitaries (or its
probe input state) from dedicated streams of the given seed, so a target is
fixed across all repetitions of a run and reproducible across machines.
Shot noise is then the only randomness inside a trial.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..linalg import eig_reconstruct, haar_unitary
from ..measurement import SeededRng
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


@dataclass(frozen=True)
class QstTarget:
    name: str
    rho: DensityMatrix

    @property
    def dim(self) -> int:
        return self.rho.dim

    @property
    def rank(self) -> int:
        return int(np.sum(np.linalg.eigvalsh(self.rho.mat) > _RANK_TOL))


@dataclass(frozen=True)
class QdtTarget:
    name: str
    povm: Povm

    @property
    def dim(self) -> int:
        return self.povm.dim

    @property
    def element_ranks(self) -> tuple:
        return tuple(
            int(np.sum(np.linalg.eigvalsh(e) > _RANK_TOL)) for e in self.povm.elements
        )


@dataclass(frozen=True)
class AaptTarget:
    name: str
    channel: KrausChannel
    input_state: BipartitePureState

    @property
    def dim(self) -> int:
        return self.channel.dim

    @property
    def tp(self) -> bool:
        return self.channel.tp_flag

    @property
    def process(self) -> ProcessMatrix:
        return kraus_to_process(self.channel)

    @property
    def rank(self) -> int:
        return int(np.sum(np.linalg.eigvalsh(self.process.x) > _RANK_TOL))

    @property
    def sigma_out(self) -> DensityMatrix:
        return apply_extended_channel(self.channel, self.input_state.density())

    @property
    def known_trace(self) -> float:
        return self.sigma_out.trace


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
    return QdtTarget(name, Povm((p1, p2, p3), name="three-valued"))


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
        return QdtTarget(name, Povm(elems, name=name))
    if task == "aapt":
        ops = tuple(_complex_matrix(m) for m in data["kraus"])
        channel = KrausChannel(ops)
        if "input_amplitudes" in data:
            amp = np.asarray(data["input_amplitudes"], dtype=float)
            amp = amp[:, 0] + 1j * amp[:, 1]
            d = channel.dim
            probe = BipartitePureState(amp, d, amp.size // d)
        else:
            probe = maximally_entangled_input(channel.dim)
        return AaptTarget(name, channel, probe)
    raise ValueError(f"target file {path} has unknown task {task!r}")


def resolve_target(spec: str, seed: int = DEFAULT_TARGET_SEED):
    """Builtin name, or a path to a JSON target file."""
    if spec in _BUILTIN:
        return builtin_target(spec, seed)
    if spec.endswith(".json") or os.path.sep in spec:
        if not os.path.exists(spec):
            raise FileNotFoundError(f"target file {spec} does not exist")
        return load_target(spec)
    known = ", ".join(BUILTIN_TARGET_NAMES)
    raise ValueError(f"unknown target {spec!r}; built-ins: {known}")


def expected_task(target) -> str:
    if isinstance(target, QstTarget):
        return "qst"
    if isinstance(target, QdtTarget):
        return "qdt"
    if isinstance(target, AaptTarget):
        return "aapt"
    raise TypeError(f"not a target: {target!r}")
