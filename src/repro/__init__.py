"""Pure-Python reproduction of "Compresso: Pragmatic Main Memory
Compression" (Choukse, Erez, Alameldeen — MICRO 2018).

:mod:`repro.machine` holds the fixed machine of Tab. III (sizes,
clock, latencies).  Subpackages: :mod:`repro.compression` (BPC/BDI),
:mod:`repro.core` (the Compresso controller), :mod:`repro.memory`,
:mod:`repro.cpu`, :mod:`repro.osmodel`,
:mod:`repro.workloads`, :mod:`repro.simulation`, :mod:`repro.energy`,
:mod:`repro.analysis` (paper-figure runners) and :mod:`repro.runner`
(the parallel experiment executor, result cache and run journal).

README.md is the front door; DESIGN.md maps each subsystem to the
paper's sections.
"""
