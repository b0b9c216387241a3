"""Synthetic memory-content generation (the SPEC/graph trace substitute).

The paper's experiments need real memory *contents* — compression
ratios, overflow behaviour and zero-line rates all derive from the
bytes.  We cannot ship SPEC CPU2006 memory dumps, so each benchmark is
modeled as a mix of *data classes* whose BPC compressibility spans the
same range the paper reports (incompressible ~1x up to zeusmp's ~7x):

=============== ====================================== ================
 class           models                                 BPC behaviour
=============== ====================================== ================
 ZERO            untouched / zeroed allocations         free (0 bits)
 INT_SMALL       counters, small-domain arrays          ~10-25x
 INT_DELTA       index arrays, sequential ids           ~8-20x
 POINTER         heap pointer fields, 16 B-aligned      ~3-6x
 FLOAT           FP arrays w/ shared exponents          ~1.3-2.5x
 TEXT            ASCII buffers                          ~1.5-2.5x
 SPARSE          mostly-zero structs                    ~4-10x
 RANDOM          encrypted/compressed/hashed data       ~1x
=============== ====================================== ================

Lines are drawn from per-class *pools* of deterministic pseudo-random
lines.  Pools keep the number of distinct byte strings bounded, which
(a) matches real programs, where values repeat heavily, and (b) lets
the controller's compressed-size memoization work.
"""

from __future__ import annotations

import enum
import struct
from typing import Dict

import numpy as np

from .._util import stable_seed
from ..machine import LINE_BYTES


class LineClass(enum.Enum):
    """Data classes with distinct compressibility signatures."""

    ZERO = "zero"
    INT_SMALL = "int_small"
    INT_DELTA = "int_delta"
    POINTER = "pointer"
    FLOAT = "float"
    TEXT = "text"
    SPARSE = "sparse"
    RANDOM = "random"


def _rng(*key) -> np.random.RandomState:
    """Deterministic RNG from a structured key."""
    return np.random.RandomState(stable_seed(*key))


def make_line(line_class: LineClass, rng: np.random.RandomState) -> bytes:
    """Generate one 64-byte line of the given class."""
    if line_class is LineClass.ZERO:
        return bytes(LINE_BYTES)
    if line_class is LineClass.INT_SMALL:
        base = int(rng.randint(0, 4096))
        values = [(base + int(rng.randint(0, 64))) & 0xFFFFFFFF for _ in range(16)]
        return struct.pack("<16I", *values)
    if line_class is LineClass.INT_DELTA:
        base = int(rng.randint(0, 1 << 24))
        stride = int(rng.choice([1, 2, 4, 8, 16]))
        values = [(base + i * stride) & 0xFFFFFFFF for i in range(16)]
        return struct.pack("<16I", *values)
    if line_class is LineClass.POINTER:
        # 64-bit pointers into one object arena: shared high bits,
        # 64-byte-aligned objects a small stride apart.
        arena = 0x7F00_0000_0000 + int(rng.randint(0, 256)) * (1 << 20)
        base = arena + int(rng.randint(0, 1 << 10)) * 64
        values = [base + int(rng.randint(0, 32)) * 64 for _ in range(8)]
        return struct.pack("<8Q", *values)
    if line_class is LineClass.FLOAT:
        # float32 arrays with a shared exponent and coarsely quantized
        # mantissas — typical of physical-simulation state, where BPC's
        # bit-plane transform exposes the idle mantissa bits.
        exponent = float(rng.choice([0.25, 1.0, 4.0]))
        values = exponent * (rng.randint(0, 512, 16) / 256.0)
        return struct.pack("<16f", *values.astype(np.float32))
    if line_class is LineClass.TEXT:
        alphabet = b"etaoin shrdlucmfwypvbgkjqxz,.ETAOIN"
        indices = rng.randint(0, len(alphabet), LINE_BYTES)
        return bytes(alphabet[i] for i in indices)
    if line_class is LineClass.SPARSE:
        line = bytearray(LINE_BYTES)
        for _ in range(int(rng.randint(1, 4))):
            offset = int(rng.randint(0, 14)) * 4
            line[offset : offset + 4] = struct.pack(
                "<I", int(rng.randint(0, 1 << 16))
            )
        return bytes(line)
    if line_class is LineClass.RANDOM:
        return rng.bytes(LINE_BYTES)
    raise ValueError(f"unknown line class {line_class}")


class LinePool:
    """A bounded pool of deterministic lines for one (context, class)."""

    def __init__(self, context: str, line_class: LineClass,
                 size: int = 512) -> None:
        self.context = context
        self.line_class = line_class
        self.size = size
        self._lines: Dict[int, bytes] = {}

    def line(self, index: int) -> bytes:
        slot = index % self.size
        cached = self._lines.get(slot)
        if cached is None:
            rng = _rng(self.context, self.line_class.value, slot)
            cached = make_line(self.line_class, rng)
            self._lines[slot] = cached
        return cached


class PageImageGenerator:
    """Materializes page contents for one benchmark run.

    A page is assigned a dominant class from ``mix`` (a class→weight
    dict); individual lines follow the page's class, with a
    per-benchmark fraction of zero lines sprinkled in (modeling
    partially initialized structures — leslie3d's 43% and soplex's 25%
    zero lines come from here).

    ``line(page, line, version)`` is fully deterministic, so any
    (re)read of the same coordinates yields identical bytes.
    """

    def __init__(self, name: str, mix: Dict[LineClass, float],
                 zero_line_fraction: float = 0.0,
                 mixed_fraction: float = 0.08,
                 pool_size: int = 512) -> None:
        if not mix:
            raise ValueError("page class mix must not be empty")
        total = sum(mix.values())
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.name = name
        self.classes = sorted(mix, key=lambda c: c.value)
        self.weights = [mix[c] / total for c in self.classes]
        self.zero_line_fraction = zero_line_fraction
        self.mixed_fraction = mixed_fraction
        self._pools: Dict[LineClass, LinePool] = {
            cls: LinePool(name, cls, pool_size) for cls in LineClass
        }

    def page_class(self, page: int) -> LineClass:
        rng = _rng(self.name, "pageclass", page)
        return self.classes[
            int(rng.choice(len(self.classes), p=self.weights))
        ]

    def secondary_class(self, page: int) -> LineClass:
        """Minority class sprinkled into a page (real pages are not
        perfectly homogeneous — e.g. headers inside data arrays)."""
        rng = _rng(self.name, "secondary", page)
        return self.classes[
            int(rng.choice(len(self.classes), p=self.weights))
        ]

    def line(self, page: int, line: int, version: int = 0,
             override: LineClass = None) -> bytes:
        """Content of a line; ``version`` advances on writebacks."""
        cls = override or self.page_class(page)
        if override is None and cls is not LineClass.ZERO \
                and self.mixed_fraction:
            rng = _rng(self.name, "hetero", page, line)
            if rng.rand() < self.mixed_fraction:
                cls = self.secondary_class(page)
        if cls is LineClass.ZERO:
            return bytes(LINE_BYTES)
        if self.zero_line_fraction:
            rng = _rng(self.name, "zline", page, line)
            if rng.rand() < self.zero_line_fraction:
                return bytes(LINE_BYTES)
        index = hash((page, line, version)) & 0x7FFFFFFF
        return self._pools[cls].line(index)
