#pragma once
// The ledger's workloads: each is a fixed list of experiment cells derived
// from the --seed argument. A cell is stored as its canonical scenario JSON,
// the form a user hands the simulator, so set-up time includes parsing it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ledger {

struct Cell {
  std::string label;     ///< short human-readable name, for failure messages
  std::string scenario;  ///< canonical scenario JSON (ExperimentSpec::to_json)
  /// Seed of the job trace (closed workload or open arrival stream) when it
  /// differs from the scenario's seed, which then seeds the engine only.
  std::optional<std::uint64_t> trace_seed;
};

struct Workload {
  std::string name;
  /// Every pass runs every cell once, in order.
  std::vector<Cell> cells;
  /// Telemetry cadence (simulated seconds) the traced pass samples worker
  /// queues at when a cell's scenario has no telemetry of its own.
  double probe_interval_s = 0.0;
  /// The first cell's reference runs must match core::run_experiment on the
  /// same spec, bit for bit. Only cells whose job trace comes from the
  /// scenario's own seed can be replayed that way.
  bool check_first_cell = false;
};

/// Builds workload `name` for `seed`. `scenario_dir` holds the scenario
/// files the workloads start from. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     const std::string& scenario_dir);

}  // namespace ledger
