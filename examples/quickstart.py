#!/usr/bin/env python
"""Quickstart: compress cache lines, then run a Compresso memory system.

Walks through the library bottom-up:

1. compress individual 64-byte cache lines with the paper's two
   algorithms (Compresso's modified BPC and BDI, Fig. 2);
2. stand up a Compresso memory controller (OSPA -> MPA translation,
   LinePack packing, inflation room, predictor, repacking);
3. write/read data through it and inspect compression + data movement.

Run:  python examples/quickstart.py
"""

import struct

from repro.compression import BDICompressor, BPCCompressor
from repro.core import CompressedMemoryController, compresso_config
from repro.memory import MemoryGeometry


def demo_compression() -> None:
    print("=== 1. cache-line compression ===")
    samples = {
        "zeros": bytes(64),
        "counter array": struct.pack("<16I", *range(1000, 1016)),
        "pointers": struct.pack("<8Q", *[0x7F00DEAD0000 + i * 64
                                         for i in range(8)]),
        "ascii text": (b"the quick brown fox jumps over the lazy dog"
                       + b" " * 64)[:64],
        "random": bytes((i * 197 + 89) % 256 for i in range(64)),
    }
    algorithms = [BPCCompressor(), BDICompressor()]
    header = f"{'data':16s}" + "".join(f"{a.name:>8s}" for a in algorithms)
    print(header)
    for label, line in samples.items():
        row = f"{label:16s}"
        for algorithm in algorithms:
            compressed = algorithm.compress(line)
            assert algorithm.decompress(compressed) == line
            row += f"{compressed.size_bytes:7d}B"
        print(row)
    print("(both algorithms verified by decompressing back to the input)\n")


def demo_controller() -> None:
    print("=== 2. Compresso memory controller ===")
    geometry = MemoryGeometry(installed_bytes=64 << 20, advertised_ratio=2.0)
    controller = CompressedMemoryController(compresso_config(), geometry)
    print(f"installed: {geometry.installed_bytes >> 20} MB, advertised to "
          f"the OS: {geometry.advertised_bytes >> 20} MB "
          f"(metadata overhead {geometry.metadata_overhead:.1%})")

    # An application writes a mix of data.
    for page in range(16):
        for line in range(64):
            if page < 10:   # compressible: small integers
                data = struct.pack("<16I", *[(page * 64 + line + i) & 0xFFFF
                                             for i in range(16)])
            elif page < 13:  # zeros (untouched-style)
                data = bytes(64)
            else:            # incompressible
                data = bytes((line * 255 + i * 37 + page) % 256
                             for i in range(64))
            controller.write_line(page, line, data)

    # Read back and verify.
    check = controller.read_line(3, 5)
    expected = struct.pack("<16I", *[(3 * 64 + 5 + i) & 0xFFFF
                                     for i in range(16)])
    assert check.data == expected
    print(f"compression ratio: {controller.compression_ratio():.2f}x")
    used_kb = controller.allocator.used_bytes >> 10
    print(f"machine memory used: {used_kb} KB for {16 * 4} KB of OS data")

    stats = controller.stats
    print(f"demand accesses: {stats.demand_accesses}, "
          f"zero-line shortcuts: {stats.saved_accesses}, "
          f"extra (movement) accesses: {stats.extra_accesses} "
          f"({stats.relative_extra_accesses():.1%})")
    print(f"line overflows: {stats.line_overflows}, "
          f"IR expansions: {stats.ir_expansions}, "
          f"metadata hit rate: {stats.metadata_hit_rate():.1%}")


if __name__ == "__main__":
    demo_compression()
    demo_controller()
