// Chrome trace-event JSON export of a replayed Timeline (load the file in
// chrome://tracing or https://ui.perfetto.dev).
//
// Layout: one trace "process" per simulated rank with three "threads" —
// cpu (compute slices), net-out (egress-link occupancy) and net-in
// (ingress-link occupancy) — plus machine-wide instant markers at every
// superstep barrier. Slice names are the schedule's phase annotations
// (Machine::annotate), falling back to the event kind.
//
// The Timeline must have been built with TimelineOptions::record_slices.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sched/taskpool.hpp"
#include "sched/timeline.hpp"
#include "support/profile.hpp"

namespace conflux::sched {

/// Stream the trace JSON; returns the number of trace events written.
std::size_t write_chrome_trace(std::ostream& os, const Timeline& timeline);

/// Write to a file; false if the file could not be written.
bool write_chrome_trace_file(const std::string& path, const Timeline& timeline);

/// The merged observability trace (CONFLUX_TRACE): the task-pool worker
/// timeline (pid 0: one trace thread per pool worker, tid 0 = the master,
/// one slice per parallel_for index named by its call, schedule step in
/// args), the factor cores' annotated phase spans (pid 1, one
/// thread per annotating thread) and the sampled counter tracks as Chrome
/// "C" counter events (pid 2), in one trace-event file. The caller starts
/// TaskPool::start_recording() and prof::start_capture() back-to-back so
/// the two wall-clock epochs line up.
std::size_t write_unified_trace(std::ostream& os,
                                const std::vector<TaskSlice>& task_slices,
                                const prof::Capture& capture);
bool write_unified_trace_file(const std::string& path,
                              const std::vector<TaskSlice>& task_slices,
                              const prof::Capture& capture);

}  // namespace conflux::sched
