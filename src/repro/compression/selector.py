"""Compressor selection helpers.

``BestOfCompressor`` runs several algorithms "in parallel" (as the
paper's hardware module does for BPC with/without transform, §II-A) and
keeps the smallest encoding.  A small registry maps algorithm names to
constructors so configurations can name their compressor.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from .base import CompressedLine, Compressor, LINE_SIZE
from .bdi import BDICompressor
from .bpc import BPCCompressor
from .cpack import CPackCompressor
from .fpc import FPCCompressor
from .lz import LZCompressor
from .zero import ZeroCompressor


class BestOfCompressor(Compressor):
    """Compress with every child and keep the smallest result.

    Decompression dispatches on the winning child's algorithm name, so
    children must have distinct names.
    """

    name = "best-of"

    def __init__(self, children: Sequence[Compressor]) -> None:
        if not children:
            raise ValueError("BestOfCompressor needs at least one child")
        super().__init__(children[0].line_size)
        names = [c.name for c in children]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate child algorithm names: {names}")
        if any(c.line_size != self.line_size for c in children):
            raise ValueError("all children must share a line size")
        self.children = list(children)
        self._by_name = {c.name: c for c in children}

    def compress(self, data: bytes) -> CompressedLine:
        self._check_input(data)
        return min(
            (child.compress(data) for child in self.children),
            key=lambda line: line.size_bits,
        )

    def decompress(self, line: CompressedLine) -> bytes:
        child = self._by_name.get(line.algorithm)
        if child is None:
            raise ValueError(f"no child can decode {line.algorithm!r}")
        return child.decompress(line)


_REGISTRY: Dict[str, Callable[[int], Compressor]] = {
    "bpc": lambda n: BPCCompressor(n),
    "bpc-transform-only": lambda n: BPCCompressor(n, transform_only=True),
    "bdi": BDICompressor,
    "fpc": FPCCompressor,
    "cpack": CPackCompressor,
    "lz": LZCompressor,
    "zero": ZeroCompressor,
}


def available_algorithms() -> List[str]:
    """Names accepted by :func:`make_compressor`."""
    return sorted(_REGISTRY)


def make_compressor(name: str, line_size: int = LINE_SIZE) -> Compressor:
    """Construct a compressor by registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compressor {name!r}; available: {available_algorithms()}"
        ) from None
    return factory(line_size)
