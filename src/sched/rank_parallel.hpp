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

#include <algorithm>

#include "sched/taskpool.hpp"
#include "tensor/matrix.hpp"

namespace conflux::sched {

/// Fixed row-block width for blocked per-task updates: a multiple of the
/// gemm register tile so block boundaries never change microkernel edge
/// handling, and therefore never change results across thread counts.
inline constexpr index_t kRowBlock = 128;

inline index_t num_row_blocks(index_t rows) {
  return rows > 0 ? (rows + kRowBlock - 1) / kRowBlock : 0;
}

/// Run row(i) for every i in [0, rows) on the task pool: one task per fixed
/// kRowBlock row block, rows in ascending order inside it. A per-row result
/// computed by one call is therefore the same bits at any width.
template <typename Row>
void parallel_rows(index_t rows, Row&& row) {
  TaskPool::instance().parallel_for(num_row_blocks(rows), [&](index_t blk) {
    const index_t end = std::min(rows, (blk + 1) * kRowBlock);
    for (index_t i = blk * kRowBlock; i < end; ++i) row(i);
  });
}

}  // namespace conflux::sched
