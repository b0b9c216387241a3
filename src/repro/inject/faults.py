"""Deterministic, seedable fault injection for the Compresso model.

The injector perturbs the controller's *internal* structures — shadow
line data, metadata entries, metadata-cache entries, allocator books —
the way bit flips and logic bugs would, then lets the detect-and-
recover machinery (``sanitize="recover"``, docs/ROBUSTNESS.md) find
and absorb the damage.  Everything is driven by one ``random.Random``
seed, so a campaign replays exactly.

Fault sites (:data:`SITES`):

* ``line`` — flip a bit in a compressed line's shadow payload; the
  recorded ideal size no longer matches what the data compresses to
  (``data-desync``).  Only lines whose flip provably changes the
  compressed size are targeted; flips that leave the size unchanged
  are outside this fault model (they would need ECC modelling).
* ``meta`` — corrupt a page's metadata entry: size field out of range,
  line-bin scramble (layout desync), out-of-range inflation pointer,
  or an out-of-range MPFN (512 B-chunk allocation only).  Every
  variant violates a sanitizer invariant by construction.
* ``mdcache`` — corrupt a resident metadata-cache entry: flip its
  half/full shape or remap it to the wrong page (``mdcache-desync``).
* ``alloc-exhaust`` — seize the allocator's entire free pool, forcing
  the next allocation into the ballooning / emergency-repack /
  degraded-mode path; :meth:`FaultInjector.release_seized` gives the
  pool back.
* ``double-grant`` — put an allocated chunk (or buddy region) back on
  the free list, the classic allocator bug (``alloc-books``).

After committing a corruption fault the injector runs
``controller.scrub(...)`` (a modelled background scrubber pass) so
detection is immediate and deterministic; pass ``scrub=False`` to
leave faults latent until the controller's own sanitize hooks see
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..machine import CHUNKS_PER_PAGE, LINE_BYTES, LINES_PER_PAGE
from ..obs.tracer import NULL_TRACER

#: Recognised fault sites, in spec-grammar order.
SITES = ("line", "meta", "mdcache", "alloc-exhaust", "double-grant")

#: Bit flips attempted before falling back to an incompressible fill.
_BIT_FLIP_RETRIES = 8


@dataclass(frozen=True)
class FaultSpec:
    """One site's injection schedule: Bernoulli(rate) per step."""

    site: str
    rate: float
    burst: int = 1      # faults committed per firing step

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {SITES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"fault burst must be >= 1, got {self.burst}")


def parse_fault_spec(text: str) -> List[FaultSpec]:
    """Parse the ``site:rate[:burst]`` comma-separated spec grammar.

    Example: ``"line:0.01,meta:0.005,alloc-exhaust:0.001:1"``.  This is
    the grammar behind ``SimulationConfig.faults`` and the CLI's
    ``--inject`` flag (docs/ROBUSTNESS.md).
    """
    specs: List[FaultSpec] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise ValueError(
                f"bad fault spec {part!r}: expected site:rate[:burst]")
        try:
            rate = float(fields[1])
            burst = int(fields[2]) if len(fields) == 3 else 1
        except ValueError:
            raise ValueError(
                f"bad fault spec {part!r}: rate must be a float and "
                f"burst an int") from None
        specs.append(FaultSpec(fields[0].strip(), rate, burst))
    if not specs:
        raise ValueError(f"empty fault spec: {text!r}")
    return specs


@dataclass(frozen=True)
class FaultRecord:
    """One committed fault, for campaign reconciliation."""

    fault_id: int
    site: str
    page: Optional[int]      # afflicted OSPA page; None for global sites
    clock: int               # tracer clock at injection time
    detail: str


class FaultInjector:
    """Commits faults against a bound controller on a seeded schedule.

    Args:
        spec: a spec string (``parse_fault_spec`` grammar), a single
            :class:`FaultSpec`, or a sequence of them.
        seed: drives every random choice (schedule and targets).
        scrub: run ``controller.scrub`` after each corruption fault so
            detection is immediate; disable to model latent faults.
    """

    def __init__(self, spec: Union[str, FaultSpec, Sequence[FaultSpec]],
                 seed: int = 0, scrub: bool = True) -> None:
        if isinstance(spec, str):
            self.specs = parse_fault_spec(spec)
        elif isinstance(spec, FaultSpec):
            self.specs = [spec]
        else:
            self.specs = list(spec)
            if not self.specs:
                raise ValueError("no fault specs given")
        self.rng = random.Random(seed)
        self.scrub = scrub
        self.records: List[FaultRecord] = []
        self.skipped = 0                    # firings with no eligible target
        self.controller = None
        self.tracer = NULL_TRACER
        self._seized: List[List[int]] = []  # seize() groups, for release

    def bind(self, controller, tracer=None) -> "FaultInjector":
        """Attach the controller (and its tracer) to inject into."""
        self.controller = controller
        self.tracer = tracer if tracer is not None else controller.tracer
        return self

    # -- schedule ---------------------------------------------------------

    def step(self) -> List[FaultRecord]:
        """One injection opportunity: Bernoulli draw per spec.

        Returns the records committed this step (usually empty).
        """
        if self.controller is None:
            raise RuntimeError("injector not bound to a controller")
        committed: List[FaultRecord] = []
        for spec in self.specs:
            if self.rng.random() >= spec.rate:
                continue
            for _ in range(spec.burst):
                record = self.inject(spec.site)
                if record is not None:
                    committed.append(record)
        return committed

    def inject(self, site: str) -> Optional[FaultRecord]:
        """Commit one fault at ``site`` now; None if no eligible target."""
        handler = {
            "line": self._inject_line,
            "meta": self._inject_meta,
            "mdcache": self._inject_mdcache,
            "alloc-exhaust": self._inject_exhaust,
            "double-grant": self._inject_double_grant,
        }[site]
        hit = handler()
        if hit is None:
            self.skipped += 1
            return None
        page, detail = hit
        record = FaultRecord(len(self.records), site, page,
                             self.tracer.clock, detail)
        self.records.append(record)
        self.tracer.emit("fault_injected", page=page,
                         fault_id=record.fault_id, site=site, detail=detail)
        if self.scrub and site in ("line", "meta", "mdcache"):
            self.controller.scrub(page)
        elif self.scrub and site == "double-grant":
            # Books are global state: only a full sweep checks them.
            self.controller.scrub()
        return record

    def release_seized(self) -> int:
        """Give back everything ``alloc-exhaust`` faults seized."""
        allocator = self.controller.allocator
        released = 0
        for group in self._seized:
            allocator.restore(group)
            released += len(group)
        self._seized = []
        return released

    # -- fault sites ------------------------------------------------------

    def _compressed_pages(self):
        """Valid non-zero pages, in deterministic insertion order."""
        return [(page, state) for page, state in self.controller.pages.items()
                if state.meta.valid and not state.meta.zero]

    def _inject_line(self):
        """Bit-flip a compressible line's shadow payload (data-desync)."""
        controller = self.controller
        candidates = []
        for page, state in self._compressed_pages():
            lines = [line for line, data in enumerate(state.data)
                     if data is not None
                     and 0 < state.ideal_sizes[line] < LINE_BYTES]
            if lines:
                candidates.append((page, state, lines))
        if not candidates:
            return None
        page, state, lines = self.rng.choice(candidates)
        line = self.rng.choice(lines)
        data = state.data[line]
        recorded = state.ideal_sizes[line]
        for _ in range(_BIT_FLIP_RETRIES):
            flipped = bytearray(data)
            index = self.rng.randrange(len(flipped))
            flipped[index] ^= 1 << self.rng.randrange(8)
            flipped = bytes(flipped)
            if controller._sizes.size_bytes(flipped) != recorded:
                state.data[line] = flipped
                return page, f"line {line} bit flip at byte {index}"
        # Flips that keep the size are invisible to the size check;
        # model an uncorrectable burst instead (always size-visible,
        # since the line was compressible and this fill is not).
        filled = bytes(self.rng.getrandbits(8) for _ in range(len(data)))
        if controller._sizes.size_bytes(filled) == recorded:
            return None
        state.data[line] = filled
        return page, f"line {line} burst corruption"

    def _inject_meta(self):
        """Corrupt one metadata entry with an invariant-visible variant."""
        controller = self.controller
        pages = self._compressed_pages()
        if not pages:
            return None
        page, state = self.rng.choice(pages)
        meta = state.meta
        variants = ["size", "inflate"]
        if meta.compressed and state.layout is not None:
            variants.append("bin")
        if not controller.allocator.contiguous and meta.mpfns:
            variants.append("mpfn")
        variant = self.rng.choice(variants)
        if variant == "size":
            meta.size_chunks = (CHUNKS_PER_PAGE + 1
                                + self.rng.randrange(4))
            return page, f"size_chunks scrambled to {meta.size_chunks}"
        if variant == "inflate":
            bogus = LINES_PER_PAGE + self.rng.randrange(4)
            meta.inflated_lines.append(bogus)
            return page, f"inflation pointer to bogus line {bogus}"
        if variant == "bin":
            line = self.rng.randrange(LINES_PER_PAGE)
            n_bins = len(controller.config.line_bins)
            shift = 1 + self.rng.randrange(n_bins - 1)
            meta.line_bins[line] = (meta.line_bins[line] + shift) % n_bins
            return page, f"line {line} bin scrambled"
        mpfn_index = self.rng.randrange(len(meta.mpfns))
        bogus = (controller.allocator.total_chunks
                 + self.rng.randrange(8))
        meta.mpfns[mpfn_index] = bogus
        return page, f"MPFN {mpfn_index} scrambled to {bogus}"

    def _inject_mdcache(self):
        """Corrupt a resident metadata-cache entry (mdcache-desync)."""
        entries = self.controller.metadata_cache.entry_items()
        if not entries:
            return None
        page, entry = self.rng.choice(entries)
        if self.rng.random() < 0.5:
            entry.half = not entry.half
            return page, "cache entry half/full shape flipped"
        entry.page = page + 1
        return page, "cache entry remapped to the wrong page"

    def _inject_exhaust(self):
        """Seize the entire free pool (allocation-pressure fault)."""
        allocator = self.controller.allocator
        free = allocator.free_chunks
        if not free:
            return None
        group = allocator.seize(free)
        self._seized.append(group)
        return None, f"seized {free} free chunks"

    def _inject_double_grant(self):
        """Re-list an allocated chunk/region as free (alloc-books)."""
        allocator = self.controller.allocator
        owned = sorted(allocator.owned())
        kind = "region" if allocator.contiguous else "chunk"
        if not owned:
            return None
        target = self.rng.choice(owned)
        allocator.inject_double_grant(target)
        return None, f"double-granted {kind} {target}"
