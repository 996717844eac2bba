// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms with lock-free per-thread sinks (DESIGN.md "Observability").
//
// Design constraints, in order:
//
//   1. Near-zero cost when disabled. Every hot-path record funnels through
//      `if (!enabled()) return;` — a single relaxed atomic load and branch
//      (the same pattern as fault::enabled()), validated by an overhead
//      gate in obs_test. Disabled-mode recording leaves every cell
//      untouched, so a run with CONFLUX_METRICS unset pays only the branch.
//
//   2. Read-only on the data path. Instrumentation never changes what is
//      computed — the factor cores' bitwise-determinism guarantees (factors
//      identical across threads x pz x metrics on/off) hold
//      because a counter add is the ONLY side effect.
//
//   3. Exact concurrent counts. Each thread owns a private sink cell per
//      counter: an increment is a relaxed load+store on a cell no other
//      thread writes, so no increment is ever lost, and a quiescent-point
//      snapshot (after a parallel_for/join) sums exactly. Snapshots taken DURING
//      concurrent recording are racy-but-coherent: each cell reads as a
//      value it held at some point, never a torn word (cells are atomics).
//
//   4. Monotonic raw cells + baseline reset. reset() never zeroes another
//      thread's cell (that store could race an owner's read-modify-write
//      and lose counts); it snapshots the raw totals as the new baseline
//      and snapshot() reports the difference.
//
// Metrics are registered once by name (duplicate registration returns the
// same id — instrumented translation units can each declare the counter
// they write). Handles are cheap value types meant for namespace-scope
// `const` objects next to the code they instrument.
//
// CONFLUX_METRICS=1 arms the registry from the environment at static-init
// time; set_enabled() is the programmatic override (benches, tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace conflux::metrics {

namespace detail {
// Armed from CONFLUX_METRICS when the registry first constructs (any
// metric registration — all of which happen during static init of the
// instrumented translation units) and from set_enabled().
inline constinit std::atomic<bool> g_enabled{false};

int register_counter(const char* name);
int register_gauge(const char* name);
int register_histogram(const char* name, const double* bounds, int nbounds);
void counter_add(int id, double delta);
void gauge_set(int id, double v);
void histogram_record(int id, double v);
}  // namespace detail

/// The one hot-path branch: a single relaxed load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Programmatic arm/disarm (overrides the CONFLUX_METRICS default).
void set_enabled(bool on);

enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

/// Monotonic sum (bytes moved, tasks run, faults fired).
class Counter {
 public:
  explicit Counter(const char* name) : id_(detail::register_counter(name)) {}
  void add(double delta) const {
    if (!enabled()) return;
    detail::counter_add(id_, delta);
  }
  int id() const { return id_; }

 private:
  int id_;
};

/// Last-set value plus high-water mark (queue depths, widths).
class Gauge {
 public:
  explicit Gauge(const char* name) : id_(detail::register_gauge(name)) {}
  void set(double v) const {
    if (!enabled()) return;
    detail::gauge_set(id_, v);
  }
  int id() const { return id_; }

 private:
  int id_;
};

/// Fixed upper-bound buckets (ascending); values above the last bound land
/// in a final overflow bucket, so there are bounds.size()+1 buckets.
class Histogram {
 public:
  Histogram(const char* name, std::initializer_list<double> upper_bounds)
      : id_(detail::register_histogram(name, upper_bounds.begin(),
                                       static_cast<int>(upper_bounds.size()))) {}
  void record(double v) const {
    if (!enabled()) return;
    detail::histogram_record(id_, v);
  }
  int id() const { return id_; }

 private:
  int id_;
};

/// One metric's aggregated state at snapshot time.
struct MetricValue {
  std::string name;
  Kind kind = Kind::Counter;
  double value = 0.0;  ///< counter total / gauge last-set value
  double max = 0.0;    ///< gauge high-water mark since reset
  long long count = 0; ///< histogram: total recordings
  double sum = 0.0;    ///< histogram: sum of recorded values
  std::vector<double> bounds;       ///< histogram upper bounds
  std::vector<long long> buckets;   ///< bounds.size()+1 entries
};

/// Point-in-time aggregation of every registered metric (minus the reset
/// baseline), sorted by name.
struct Snapshot {
  std::vector<MetricValue> values;

  const MetricValue* find(std::string_view name) const;
  /// Counter/gauge value by name; 0 if absent.
  double value(std::string_view name) const;
  /// Sum of `value` over all metrics whose name starts with `prefix`.
  double sum_prefix(std::string_view prefix) const;
};

Snapshot snapshot();

/// Start a new accounting epoch: subsequent snapshots report only activity
/// after this call. Never writes another thread's cells (see file comment).
void reset();

/// The current snapshot as a JSON object {"name": {...}, ...}.
void write_json(std::ostream& os);
void write_json(std::ostream& os, const Snapshot& snap);

/// Compact single-line "name=value name=value ..." rendering of every
/// nonzero metric — what the task-pool watchdog embeds in a pool-wedged
/// dump so a hang report carries the runtime state that led up to it.
std::string debug_string();

}  // namespace conflux::metrics
