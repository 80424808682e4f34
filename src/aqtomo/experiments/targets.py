"""Benchmark targets for the scaling experiments.

The built-in targets are one table, ``_BUILTIN``: each row names a target
once and gives its builder with the builder's arguments, among them the
streams of the target seed it draws from.  Every built-in target that
involves randomness draws its unitaries (or its probe input state) from
those dedicated streams, so a target is fixed across all repetitions of a
run and reproducible across machines.  Shot noise is then the only
randomness inside a trial.

A target holds its ``task``, the ``oracle`` that hides it and the constants
a trial scores against (``ranks``, one true rank per scored matrix, and the
truth rooted with its fidelity scenario); each is computed on first access
and kept, so every trial of a run shares them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..fidelity import FidelityScenario, Truth
from ..linalg import DimensionError, eig_reconstruct, haar_unitary
from ..measurement import DetectorOracle, SeededRng, StateOracle
from ..quantum_objects import (
    RANK_TOL,
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
_MIN_SCHMIDT = 0.35  # smallest Schmidt coefficient of a random AAPT probe


def _ranks(eigenvalues: np.ndarray) -> tuple:
    """Numerical ranks of a spectrum, or of each row of a stack of spectra."""
    return tuple(np.sum(np.atleast_2d(eigenvalues) > RANK_TOL, axis=-1).tolist())


@dataclass(frozen=True)
class QstTarget:
    name: str
    rho: DensityMatrix
    task = "qst"

    @property
    def dim(self) -> int:
        return self.rho.dim

    @cached_property
    def ranks(self) -> tuple:
        return _ranks(self.rho.eigenvalues)

    @cached_property
    def truth(self) -> Truth:
        return Truth.of(self.rho.mat, FidelityScenario("state"))

    @cached_property
    def oracle(self):
        """Oracle of ``rho``; it computes its cube table once and keeps it."""
        return StateOracle(self.rho)


@dataclass(frozen=True)
class QdtTarget:
    name: str
    povm: Povm
    task = "qdt"

    @property
    def dim(self) -> int:
        return self.povm.dim

    @cached_property
    def ranks(self) -> tuple:
        return _ranks(self.povm.eigenvalues)

    @cached_property
    def truth(self) -> Truth:
        return Truth.of(self.povm.elements, FidelityScenario("detector_element"))

    @cached_property
    def oracle(self):
        """Oracle of ``povm``; it computes its cube table once and keeps it."""
        return DetectorOracle(self.povm)


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
    def ranks(self) -> tuple:
        return _ranks(self.process.eigenvalues)

    @cached_property
    def truth(self) -> Truth:
        return Truth.of(self.process.x, FidelityScenario("process"))

    @cached_property
    def sigma_out(self) -> DensityMatrix:
        return apply_extended_channel(self.channel, self.input_state.density())

    @cached_property
    def sigma_out_truth(self) -> Truth:
        return Truth.of(self.sigma_out.mat, FidelityScenario("pseudo_state"))

    @property
    def known_trace(self) -> float:
        return self.sigma_out.trace

    @cached_property
    def oracle(self):
        """Oracle of ``sigma_out``; it computes its cube table once and keeps it."""
        return StateOracle(self.sigma_out)


def _target_rng(seed: int, stream: int) -> np.random.Generator:
    return SeededRng(seed, stream_id=TARGET_STREAM_BASE + stream).generator()


def _qst(name, seed, spectrum, stream) -> QstTarget:
    u = haar_unitary(len(spectrum), _target_rng(seed, stream))
    rho = DensityMatrix(eig_reconstruct(np.asarray(spectrum, float), u))
    return QstTarget(name, rho)


def _three_valued(name, seed, d, streams) -> QdtTarget:
    # a rank-1 element 0.4 |u><u|, a rank-1 element 0.5 |v><v| and the
    # full-rank rest
    u1 = haar_unitary(d, _target_rng(seed, streams[0]))
    u2 = haar_unitary(d, _target_rng(seed, streams[1]))
    p1 = eig_reconstruct(np.array([0.4] + [0.0] * (d - 1)), u1)
    p2 = u2 @ np.diag([0.0, 0.5] + [0.0] * (d - 2)).astype(complex) @ u2.conj().T
    p3 = np.eye(d) - p1 - p2
    return QdtTarget(name, Povm((p1, p2, p3)))


def _random_full_schmidt_probe(gen, d: int) -> BipartitePureState:
    """Seeded random pure probe, conditioned away from Schmidt degeneracy.

    The ancilla inversion divides by the Schmidt coefficients, so a draw with
    a tiny coefficient makes the benchmark constant-factor pathological while
    still being formally full-Schmidt.  Rejecting such draws keeps the target
    well conditioned for every seed; the draw stays fixed given the seed.
    """
    for _ in range(1000):
        amp = gen.standard_normal(d * d) + 1j * gen.standard_normal(d * d)
        probe = BipartitePureState(amp / np.linalg.norm(amp), d, d)
        if probe.coefficients[-1] >= _MIN_SCHMIDT:
            return probe
    raise RuntimeError("could not draw a well-conditioned full-Schmidt probe")


def _aapt(name, seed, kraus, probe_stream=None) -> AaptTarget:
    """A channel probed through the maximally entangled input, or through a
    random full-Schmidt input drawn from ``probe_stream``."""
    channel = KrausChannel(tuple(np.array(a, dtype=complex) for a in kraus))
    if probe_stream is None:
        probe = maximally_entangled_input(channel.dim)
    else:
        gen = _target_rng(seed, probe_stream)
        probe = _random_full_schmidt_probe(gen, channel.dim)
    return AaptTarget(name, channel, probe)


# name -> (builder, the builder's arguments after the name and the seed);
# the integers are the target-seed streams each row draws from
_BUILTIN = {
    "qst-rank1-8d": (_qst, [1.0] + [0.0] * 7, 1),
    "qst-rank1-64d": (_qst, [1.0] + [0.0] * 63, 8),
    "qst-rank1-256d": (_qst, [1.0] + [0.0] * 255, 9),
    "qst-rank2-8d": (_qst, [0.5, 0.5] + [0.0] * 6, 2),
    "qst-rank4-8d": (_qst, [0.25] * 4 + [0.0] * 4, 3),
    # same degenerate spectrum as qst-rank2-8d under an independent unitary;
    # exercises estimators that must not depend on any eigenbasis choice
    # inside the degenerate block
    "qst-rank2-degenerate": (_qst, [0.5, 0.5] + [0.0] * 6, 4),
    "qdt-three-valued": (_three_valued, 4, (5, 6)),
    "qdt-three-valued-8d": (_three_valued, 8, (10, 11)),
    "qdt-three-valued-16d": (_three_valued, 16, (12, 13)),
    "aapt-hadamard": (_aapt, [np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)]),
    "aapt-damping-0.989": (
        _aapt,
        [np.diag([1.0, np.sqrt(1.0 - 0.989)]), np.diag([0.0, np.sqrt(0.989)])],
    ),
    # lossy dephasing: both Kraus operators damp the |1> amplitude by
    # sqrt(1/3), so the channel is completely positive but not
    # trace-preserving (sum A^dag A = diag(1, 2/3))
    "aapt-damping-third": (
        _aapt,
        [np.diag([1.0, np.sqrt(1.0 / 3.0)]), np.diag([0.0, np.sqrt(1.0 / 3.0)])],
        7,
    ),
    # a 3-qubit unitary channel: d_out = 64 and a rank-1 process matrix
    "aapt-toffoli": (_aapt, [np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]]),
}

BUILTIN_TARGET_NAMES = tuple(_BUILTIN)


def builtin_target(name: str, seed: int = DEFAULT_TARGET_SEED):
    """Construct a named benchmark target, fixed given (name, seed)."""
    try:
        builder, *args = _BUILTIN[name]
    except KeyError:
        known = ", ".join(BUILTIN_TARGET_NAMES)
        raise ValueError(f"unknown target {name!r}; built-ins: {known}") from None
    return builder(name, seed, *args)


def _complex_array(data, ndim: int, what: str) -> np.ndarray:
    """The complex array of ``ndim`` axes held as nested ``[re, im]`` pairs."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError(f"{what} must be nested lists of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


# the key each task's target file must hold
_FILE_KEYS = {"qst": "density", "qdt": "elements", "aapt": "kraus"}


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
    key = _FILE_KEYS.get(task)
    if key is None:
        raise ValueError(f"target file {path} has unknown task {task!r}")
    if key not in data:
        raise ValueError(f"{task} target file {path} lacks the key {key!r}")
    name = data.get("name", os.path.basename(path))
    if task == "qst":
        return QstTarget(name, DensityMatrix(_complex_array(data["density"], 2, key)))
    if task == "qdt":
        elems = tuple(_complex_array(m, 2, key) for m in data["elements"])
        return QdtTarget(name, Povm(elems))
    ops = tuple(_complex_array(m, 2, key) for m in data["kraus"])
    channel = KrausChannel(ops)
    if "input_amplitudes" in data:
        amp = _complex_array(data["input_amplitudes"], 1, "input_amplitudes")
        probe = BipartitePureState(amp, channel.dim, channel.dim)
    else:
        probe = maximally_entangled_input(channel.dim)
    return AaptTarget(name, channel, probe)


def resolve_target(spec: str, seed: int = DEFAULT_TARGET_SEED):
    """Builtin name, or a path to a JSON target file."""
    if spec not in _BUILTIN and (spec.endswith(".json") or os.path.sep in spec):
        if not os.path.exists(spec):
            raise FileNotFoundError(f"target file {spec} does not exist")
        return load_target(spec)
    return builtin_target(spec, seed)
