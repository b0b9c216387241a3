"""Tests for the 64-byte metadata entry layout (paper §III, Fig. 3)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.metadata import (
    HALF_ENTRY_BITS,
    TOTAL_BITS,
    PageMetadata,
)


class TestLayoutBudget:
    def test_full_entry_fits_64_bytes(self):
        assert TOTAL_BITS <= 512

    def test_half_entry_fits_32_bytes(self):
        """The §IV-B5 half-entry must fit flags + MPFNs in 32 bytes."""
        assert HALF_ENTRY_BITS <= 256


def _sample_metadata() -> PageMetadata:
    return PageMetadata(
        valid=True,
        zero=False,
        compressed=True,
        size_chunks=3,
        free_space=7,
        mpfns=[10, 999, 123456],
        line_bins=[i % 4 for i in range(64)],
        inflated_lines=[5, 63, 17],
    )


class TestEncodeDecode:
    def test_roundtrip_sample(self):
        meta = _sample_metadata()
        bits = meta.encode()
        assert bits.length <= 512
        decoded = PageMetadata.decode(bits)
        assert decoded.valid == meta.valid
        assert decoded.zero == meta.zero
        assert decoded.compressed == meta.compressed
        assert decoded.size_chunks == meta.size_chunks
        assert decoded.free_space == meta.free_space
        assert decoded.mpfns == meta.mpfns
        assert decoded.line_bins == meta.line_bins
        assert decoded.inflated_lines == meta.inflated_lines

    def test_roundtrip_empty(self):
        meta = PageMetadata()
        decoded = PageMetadata.decode(meta.encode())
        assert decoded.valid is False
        assert decoded.zero is True
        assert decoded.size_chunks == 0
        assert decoded.mpfns == []
        assert decoded.inflated_lines == []

    @given(
        size_chunks=st.integers(min_value=0, max_value=8),
        free_space=st.integers(min_value=0, max_value=64),
        n_inflated=st.integers(min_value=0, max_value=17),
        bins_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_property(self, size_chunks, free_space, n_inflated,
                                bins_seed):
        import random
        rng = random.Random(bins_seed)
        meta = PageMetadata(
            valid=size_chunks > 0,
            zero=size_chunks == 0,
            compressed=True,
            size_chunks=size_chunks,
            free_space=free_space,
            mpfns=[rng.randrange(1 << 28) for _ in range(size_chunks)],
            line_bins=[rng.randrange(4) for _ in range(64)],
            inflated_lines=rng.sample(range(64), n_inflated),
        )
        decoded = PageMetadata.decode(meta.encode())
        assert decoded.mpfns == meta.mpfns
        assert decoded.line_bins == meta.line_bins
        assert decoded.inflated_lines == meta.inflated_lines
        assert decoded.free_space == meta.free_space


class TestInvariants:
    def test_copy_is_deep(self):
        meta = _sample_metadata()
        copy = meta.copy()
        copy.mpfns.append(1)
        copy.line_bins[0] = 3
        assert meta.mpfns != copy.mpfns
        assert meta.line_bins[0] != 3
