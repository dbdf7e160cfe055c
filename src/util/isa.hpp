// Which instruction-set copy of the lane code a translation unit compiles.
//
// bsis_core compiles the lockstep lane drivers (core/lockstep_run.cpp)
// twice: at the baseline x86-64 ISA and, where the target is x86-64 and the
// compiler accepts it, at x86-64-v4 (AVX-512) with -ffp-contract=off.
// solve_batch runs the copy the CPU supports (core/lockstep_run.hpp).
//
// The linker merges template instantiations and inline functions by name,
// so a function both copies emit would reach every caller in one copy: an
// illegal instruction on a CPU without AVX-512, or the SSE2 body in the
// wide driver. Every function the lane code instantiates therefore lives in
// an inline namespace named per copy -- `isa_base` in the baseline units,
// `isa_v4` in the wide one. Source code sees one set of names (the
// namespace is inline); the linker sees two. The types the copies share
// (batch formats, BatchVector, Workspace, EllSlabPattern, BatchLogStage,
// the stop types) stay outside it, and the wide unit must emit none of
// their functions: it calls their small accessors only through
// BSIS_INLINE_ONLY members and their other members out of line.
// scripts/isa_symbols.sh checks the wide object's symbols.
#pragma once

#if defined(BSIS_ISA_V4)
#define BSIS_ISA_NAMESPACE isa_v4
#else
#define BSIS_ISA_NAMESPACE isa_base
#endif

/// A shared type's small member that lane code calls: always inlined, so
/// the wide unit never emits a copy under the shared name.
#define BSIS_INLINE_ONLY [[gnu::always_inline]] inline
