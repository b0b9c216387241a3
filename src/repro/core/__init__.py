"""Compresso core: the paper's primary contribution.

The compressed-memory controller (OSPA→MPA translation, packing,
inflation room, prediction, repacking) and all of its building blocks.
DESIGN.md maps each module to the paper's sections; the fault-recovery
behaviour is documented in docs/ROBUSTNESS.md.
"""

from ..memory.allocator import (
    ChunkAllocator,
    OutOfMemoryError,
    VariableAllocator,
)
from .ballooning import BalloonDriver, FreeListOSModel
from .config import (
    ALIGNMENT_FRIENDLY_LINE_BINS,
    EIGHT_LINE_BINS,
    PRIOR_WORK_LINE_BINS,
    CompressoConfig,
    compresso_config,
    lcp_align_config,
    lcp_config,
)
from .controller import CompressedMemoryController, PageState
from .lcp import LCPPack
from .linepack import LinePack, split_access_fraction
from .metadata import (
    HALF_ENTRY_BITS,
    TOTAL_BITS,
    PageMetadata,
)
from .metadata_cache import MetadataCache
from .packing import LineLocation, PageLayout, blocks_spanned, choose_bin
from .predictor import PageOverflowPredictor, SaturatingCounter
from .stats import ControllerStats

__all__ = [
    "ALIGNMENT_FRIENDLY_LINE_BINS",
    "BalloonDriver",
    "ChunkAllocator",
    "CompressedMemoryController",
    "CompressoConfig",
    "ControllerStats",
    "EIGHT_LINE_BINS",
    "FreeListOSModel",
    "HALF_ENTRY_BITS",
    "LCPPack",
    "LineLocation",
    "LinePack",
    "MetadataCache",
    "OutOfMemoryError",
    "PRIOR_WORK_LINE_BINS",
    "PageLayout",
    "PageMetadata",
    "PageOverflowPredictor",
    "PageState",
    "SaturatingCounter",
    "TOTAL_BITS",
    "VariableAllocator",
    "blocks_spanned",
    "choose_bin",
    "compresso_config",
    "lcp_align_config",
    "lcp_config",
    "split_access_fraction",
]
