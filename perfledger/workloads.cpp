#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "util/json.hpp"

namespace ledger {

namespace {

using dlaja::core::ExperimentSpec;

/// open_saturation engine seeds (one cell each), same arrival trace.
constexpr std::uint64_t kOpenEngineSeeds = 4;

ExperimentSpec read_scenario(const std::string& dir, const std::string& file) {
  const std::string path = dir + "/" + file;
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read scenario " + path);
  std::stringstream text;
  text << in.rdbuf();
  return ExperimentSpec::from_json(dlaja::json::parse(text.str()));
}

Cell make_cell(std::string label, const ExperimentSpec& spec,
               std::optional<std::uint64_t> trace_seed = std::nullopt) {
  return Cell{std::move(label), spec.to_json().dump(), trace_seed};
}

Workload open_saturation(std::uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = "open_saturation";
  const ExperimentSpec scenario = read_scenario(dir, "open_saturation.json");
  w.probe_interval_s = scenario.telemetry_interval_s;
  // Every cell replays the scenario's own arrival trace; --seed drives the
  // engines (throttle noise, latency jitter). The trace seed fixes which
  // repository sizes the skewed popularity lands on, and with it the
  // offered load: across trace seeds that load ranges from well under to
  // well over the fleet's capacity, so queues either stay short or grow for
  // the whole run and no two seeds would measure the same regime. Several
  // engine seeds average out the run-to-run swing of the rare contest
  // fallbacks that dominate the mean allocation latency.
  for (std::uint64_t k = 0; k < kOpenEngineSeeds; ++k) {
    ExperimentSpec spec = scenario;
    spec.seed = seed * 1000 + k;
    w.cells.push_back(
        make_cell(spec.name + "@" + std::to_string(spec.seed), spec, scenario.seed));
  }
  return w;
}

Workload fleet_10k_sharded(std::uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = "fleet_10k_sharded";
  ExperimentSpec spec = read_scenario(dir, "fleet_10k.json");
  spec.seed = seed;
  spec.shards = 2;
  // ~100 samples over the ~80000 s simulated run.
  w.probe_interval_s = 800.0;
  w.check_first_cell = true;
  w.cells.push_back(make_cell(w.name + "@" + std::to_string(seed), spec));
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scenario_dir) {
  if (name == "open_saturation") return open_saturation(seed, scenario_dir);
  if (name == "fleet_10k_sharded") return fleet_10k_sharded(seed, scenario_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace ledger
