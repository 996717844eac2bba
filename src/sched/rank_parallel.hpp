// Deterministic fan-out over simulated-rank (or layer) tasks.
//
// Real-mode execution keeps one OS process for all P simulated ranks, so
// per-rank local compute — the 1D panel trsms and the per-layer Schur
// updates, which operate on disjoint buffers — runs across host threads
// through TaskPool::parallel_for (sched/taskpool.hpp). Two rules make
// results bitwise-identical for every thread count (DESIGN.md):
//   1. the task decomposition is fixed by the schedule (per simulated rank
//      / per layer / fixed row blocks), never by the worker count;
//   2. each output element is written by exactly one task, with the same
//      arithmetic the serial loop performs.
// Threads then only change *who* executes a task, not what it computes.
#pragma once

#include "tensor/matrix.hpp"

namespace conflux::sched {

/// Fixed row-block width for blocked per-task updates: a multiple of the
/// gemm register tile so block boundaries never change microkernel edge
/// handling, and therefore never change results across thread counts.
inline constexpr index_t kRowBlock = 128;

inline index_t num_row_blocks(index_t rows) {
  return rows > 0 ? (rows + kRowBlock - 1) / kRowBlock : 0;
}

}  // namespace conflux::sched
