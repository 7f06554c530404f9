// perf_ledger: the repository's end-to-end benchmark.
//
//   perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --scenarios <dir> [--out <dir>] [--git-rev <rev>]
//               [--source-digest <hex>]
//
// One run of one workload:
//   1. a reference pass (untimed, always on the single-shard kernel): warms
//      allocators and code, and fixes the simulated results every later
//      pass must reproduce bit for bit;
//   2. measured passes, untraced, for up to --seconds (at least
//      kMinPasses), each preceded by a batch that times the pass's set-up
//      alone; end-to-end host times are process CPU time, and each pass's
//      wall time goes to the report line;
//   3. with --trace 1, one traced pass that times each layer from outside.
// The last stdout line is the result object; --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer ones. Every correctness check
// is one attempted operation; a check that fails is a failed one.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "layers.hpp"
#include "sched/bidding.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

using dlaja::core::Engine;
using dlaja::core::ExperimentSpec;
namespace json = dlaja::json;

constexpr int kMinPasses = 3;
/// Set-up is timed in one batch before each measured pass; a batch repeats
/// the whole pass's set-up until it has taken at least kSetupBatchNs of
/// process CPU time, so even a ~0.2 ms set-up (open_saturation) is measured
/// over a long interval, and the batches spread over the run like the
/// passes do.
constexpr std::int64_t kSetupBatchNs = 150'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scenarios;
  std::string out = ".bench_out";
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_scenarios = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      args.seed = std::stoull(value, &used);
      // Cell seeds are seed * 1000 + round and travel through scenario
      // JSON numbers, exact only below 2^53.
      if (used != value.size() || args.seed > (1ULL << 40)) {
        throw std::invalid_argument("--seed wants an integer in [0, 2^40]");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds wants a value in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scenarios") {
      args.scenarios = value;
      have_scenarios = true;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_scenarios) {
    throw std::invalid_argument("--workload and --scenarios are required");
  }
  return args;
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mirrors run_experiment's per-iteration engine seed; the cross-check
/// against core::run_experiment catches any drift.
std::uint64_t iteration_seed(std::uint64_t base, int iteration) {
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(iteration + 1));
  return dlaja::splitmix64(state);
}

/// Records a span and adds its duration to `acc` — only in the traced pass.
class Scope {
 public:
  Scope(LayerClock* clock, SpanName name, std::uint64_t parent, std::int64_t* acc = nullptr)
      : clock_(clock), name_(name), parent_(parent), acc_(acc) {
    if (clock_ != nullptr) {
      id_ = clock_->spans.next_id();
      start_ = now_ns();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (clock_ == nullptr) return;
    const std::int64_t end = now_ns();
    if (acc_ != nullptr) *acc_ += end - start_;
    clock_->spans.record(name_, id_, parent_, start_, end);
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  LayerClock* clock_;
  SpanName name_;
  std::uint64_t parent_;
  std::int64_t* acc_;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

struct PassOptions {
  bool unsharded = false;          ///< force shards = 1
  bool collect_jobs = false;       ///< gather per-job turnarounds (reference pass)
  LayerClock* clock = nullptr;     ///< non-null = the traced pass
  double probe_interval_s = 0.0;   ///< traced pass: telemetry cadence if none
};

/// Everything a pass produced: host times, simulated results and the
/// correctness verdicts of its runs.
struct PassStats {
  std::int64_t total_ns = 0;
  std::int64_t setup_ns = 0;
  std::int64_t cpu_total_ns = 0;  ///< process CPU time (cpu_ns) of the pass
  std::int64_t cpu_setup_ns = 0;

  std::uint64_t runs = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dead_lettered = 0;
  std::uint64_t retries = 0;
  double makespan_sum = 0.0;
  double data_load_sum = 0.0;
  double misses_sum = 0.0;
  double alloc_weighted = 0.0;
  double alloc_weight = 0.0;
  /// Exact per-job turnarounds of every run (collect_jobs passes only).
  std::vector<double> turnarounds;

  std::uint64_t fired = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t unconserved_runs = 0;  ///< runs whose broker stats break conservation
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t contests = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t bids = 0;
  std::uint64_t telemetry_rows = 0;

  /// Per run, as bit patterns: every simulated figure of its RunReport the
  /// sim_* metrics derive from. Equal vectors mean hexfloat-identical runs.
  std::vector<std::uint64_t> signature;
  std::uint64_t failed_runs = 0;
  std::vector<std::string> failures;

  [[nodiscard]] double wall_s() const { return seconds_of(total_ns - setup_ns); }
  [[nodiscard]] double cpu_s() const { return seconds_of(cpu_total_ns - cpu_setup_ns); }
};

struct SimMetrics {
  double makespan_s, data_load_mb, cache_misses, turnaround_p50_s, turnaround_p99_s,
      alloc_latency_s, completed_frac;
  std::uint64_t turnaround_samples;
};

/// Bit patterns of a run's simulated figures; the paper's three metrics
/// (exec time, cache misses, data load) come first.
constexpr std::size_t kSignatureFields = 8;
std::array<std::uint64_t, kSignatureFields> run_signature(const dlaja::metrics::RunReport& r,
                                                          std::uint64_t offered) {
  std::array<std::uint64_t, kSignatureFields> sig{};
  std::size_t i = 0;
  for (const double v : {r.exec_time_s, static_cast<double>(r.cache_misses), r.data_load_mb,
                         r.p50_turnaround_s, r.p99_turnaround_s, r.avg_alloc_latency_s,
                         static_cast<double>(r.jobs_completed), static_cast<double>(offered)}) {
    sig[i++] = std::bit_cast<std::uint64_t>(v);
  }
  return sig;
}

/// The sim_* metrics of a collect_jobs pass: per-run means of the paper's
/// metrics, turnaround percentiles pooled over every job of the pass.
SimMetrics sim_metrics(const PassStats& p) {
  SimMetrics m{};
  const double runs = static_cast<double>(std::max<std::uint64_t>(p.runs, 1));
  m.makespan_s = p.makespan_sum / runs;
  m.data_load_mb = p.data_load_sum / runs;
  m.cache_misses = p.misses_sum / runs;
  const dlaja::Summary s = dlaja::summarize(p.turnarounds);
  m.turnaround_p50_s = s.p50;
  m.turnaround_p99_s = s.p99;
  m.turnaround_samples = s.count;
  m.alloc_latency_s = p.alloc_weight > 0.0 ? p.alloc_weighted / p.alloc_weight : 0.0;
  m.completed_frac =
      p.offered > 0 ? static_cast<double>(p.completed) / static_cast<double>(p.offered) : 0.0;
  return m;
}

/// A cell's set-up up to the first engine: parsed spec and job trace.
struct CellSetup {
  ExperimentSpec spec;
  dlaja::workload::WorkloadSpec wspec;
  std::uint64_t trace_seed = 0;
  dlaja::workload::GeneratedWorkload trace;  ///< closed cells only
};

CellSetup prepare_cell(const Cell& cell, const PassOptions& opt, std::uint64_t parent) {
  LayerClock* clock = opt.clock;
  CellSetup s;
  {
    const Scope scope(clock, SpanName::kSpec, parent, clock ? &clock->spec_ns : nullptr);
    s.spec = ExperimentSpec::from_json(json::parse(cell.scenario));
    if (opt.unsharded) s.spec.shards = 1;
    if (clock != nullptr && s.spec.telemetry_interval_s <= 0.0) {
      s.spec.telemetry_interval_s = opt.probe_interval_s;
    }
    const std::vector<dlaja::core::ValidationIssue> issues = s.spec.validate();
    if (!issues.empty()) {
      throw std::invalid_argument(cell.label + ": " + issues.front().field + ": " +
                                  issues.front().message);
    }
  }
  s.wspec = s.spec.custom_workload ? *s.spec.custom_workload
                                   : dlaja::workload::make_workload_spec(s.spec.job_config);
  s.trace_seed = cell.trace_seed.value_or(s.spec.seed);
  if (!s.spec.open_arrivals) {
    const Scope scope(clock, SpanName::kWorkloadGen, parent, clock ? &clock->gen_ns : nullptr);
    s.trace = dlaja::workload::generate_workload(s.wspec, dlaja::SeedSequencer(s.trace_seed));
  }
  return s;
}

/// One iteration's engine, built as run_experiment builds it.
struct IterationSetup {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<dlaja::workload::OpenArrivalStream> stream;  ///< open cells only
  const ObservedScheduler* observed = nullptr;
};

/// `turnarounds`, when set, receives the run's exact per-job turnarounds.
IterationSetup prepare_iteration(const CellSetup& cs, int iteration, const PassOptions& opt,
                                 std::uint64_t parent, std::vector<double>* turnarounds) {
  LayerClock* clock = opt.clock;
  const ExperimentSpec& spec = cs.spec;
  dlaja::core::EngineConfig config;
  config.seed = iteration_seed(spec.seed, iteration);
  config.noise = spec.noise;
  config.estimation = spec.estimation;
  config.probe_speeds = spec.probe_speeds;
  config.faults = spec.faults;
  config.lifecycle = spec.lifecycle;
  config.coalesce_deliveries = spec.coalesce_deliveries;
  config.shards = spec.shards;
  if (spec.telemetry_interval_s > 0.0) {
    config.telemetry.interval = dlaja::ticks_from_seconds(spec.telemetry_interval_s);
    config.telemetry.capacity = spec.telemetry_capacity;
    config.telemetry.watchdog = spec.telemetry_watchdog;
  }

  std::vector<dlaja::cluster::WorkerConfig> fleet;
  {
    const Scope scope(clock, SpanName::kFleetBuild, parent, clock ? &clock->fleet_ns : nullptr);
    fleet = spec.custom_fleet ? *spec.custom_fleet
                              : dlaja::cluster::make_fleet(spec.fleet, spec.worker_count);
    if (spec.flat_control_plane) {
      for (dlaja::cluster::WorkerConfig& cfg : fleet) cfg.latency_jitter_ms = 0.0;
      config.master_link.latency_jitter_ms = 0.0;
    }
  }
  std::unique_ptr<dlaja::sched::Scheduler> scheduler;
  IterationSetup it;
  {
    const Scope scope(clock, SpanName::kSchedBuild, parent,
                      clock ? &clock->sched_build_ns : nullptr);
    scheduler = spec.scheduler.build(spec.seed);
    if (clock != nullptr || turnarounds != nullptr) {
      auto observed =
          std::make_unique<ObservedScheduler>(std::move(scheduler), clock, turnarounds);
      it.observed = observed.get();
      scheduler = std::move(observed);
    }
  }
  {
    const Scope scope(clock, SpanName::kEngineCtor, parent, clock ? &clock->ctor_ns : nullptr);
    it.engine = std::make_unique<Engine>(fleet, std::move(scheduler), config);
  }
  if (spec.open_arrivals) {
    const Scope scope(clock, SpanName::kWorkloadGen, parent, clock ? &clock->gen_ns : nullptr);
    it.stream = std::make_unique<dlaja::workload::OpenArrivalStream>(
        cs.wspec, *spec.open_arrivals, dlaja::SeedSequencer(cs.trace_seed));
  }
  return it;
}

/// Runs one iteration and folds its results and checks into `out`.
void run_iteration(const CellSetup& cs, IterationSetup& it, const Cell& cell, int iteration,
                   const PassOptions& opt, std::uint64_t parent, PassStats& out) {
  LayerClock* clock = opt.clock;
  Engine& engine = *it.engine;
  std::optional<ClusterProbe> probe;
  if (clock != nullptr) probe.emplace(engine, *clock);

  dlaja::metrics::RunReport report;
  std::uint64_t offered = 0;
  {
    const Scope scope(clock, SpanName::kRun, parent, clock ? &clock->run_ns : nullptr);
    if (clock != nullptr) clock->run_span.store(scope.id(), std::memory_order_relaxed);
    if (it.stream) {
      dlaja::workload::OpenArrivalStream* stream = it.stream.get();
      Engine::JobSource source = [stream] { return stream->next(); };
      if (clock != nullptr) source = timed_source(std::move(source), *clock);
      report = engine.run_stream(std::move(source));
      offered = stream->emitted();
    } else {
      report = engine.run(cs.trace.jobs);
      offered = cs.trace.jobs.size();
    }
  }
  if (probe) probe->drain();

  ++out.runs;
  out.offered += offered;
  out.completed += engine.jobs_completed();
  out.dead_lettered += engine.jobs_dead_lettered();
  out.retries += engine.jobs_retried();
  out.makespan_sum += report.exec_time_s;
  out.data_load_sum += report.data_load_mb;
  out.misses_sum += static_cast<double>(report.cache_misses);
  out.alloc_weighted += report.avg_alloc_latency_s * static_cast<double>(report.jobs_completed);
  out.alloc_weight += static_cast<double>(report.jobs_completed);
  // Streamed runs retire their records; their samples came through the
  // ObservedScheduler's sink instead.
  if (opt.collect_jobs && !it.stream) {
    for (const dlaja::metrics::JobRecord* job : engine.metrics().jobs_in_arrival_order()) {
      if (job->completed() && job->arrived != dlaja::kNeverTick) {
        out.turnarounds.push_back(dlaja::seconds_from_ticks(job->finished - job->arrived));
      }
    }
  }
  const auto sig = run_signature(report, offered);
  out.signature.insert(out.signature.end(), sig.begin(), sig.end());

  out.fired += static_cast<std::uint64_t>(report.stat("sim.events_fired"));
  out.scheduled += static_cast<std::uint64_t>(report.stat("sim.events_scheduled"));
  out.cancelled += static_cast<std::uint64_t>(report.stat("sim.events_cancelled"));
  const dlaja::msg::BrokerStats& broker = engine.broker().stats();
  out.enqueued += broker.enqueued;
  out.delivered += broker.delivered;
  if (!broker.conserved()) ++out.unconserved_runs;
  for (std::size_t w = 0; w < engine.worker_count(); ++w) {
    const dlaja::storage::CacheStats& cache =
        engine.worker(static_cast<dlaja::cluster::WorkerIndex>(w)).cache().stats();
    out.cache_hits += cache.hits;
    out.cache_misses += cache.misses;
    out.evictions += cache.evictions;
  }
  for (const dlaja::metrics::WorkerRecord& w : report.workers) out.bids += w.bids_submitted;
  const dlaja::sched::Scheduler& scheduler =
      it.observed != nullptr ? it.observed->inner() : engine.scheduler();
  if (const auto* bidding = dynamic_cast<const dlaja::sched::BiddingScheduler*>(&scheduler)) {
    out.contests += bidding->stats().contests_opened;
    out.probes_sent += bidding->stats().probes_sent;
  }
  if (engine.telemetry()) out.telemetry_rows += engine.telemetry()->ticks.size();

  std::string problem;
  if (offered != engine.jobs_completed() + engine.jobs_dead_lettered()) {
    problem = "offered " + std::to_string(offered) + " != completed " +
              std::to_string(engine.jobs_completed()) + " + dead-lettered " +
              std::to_string(engine.jobs_dead_lettered());
  } else if (report.jobs_lost != 0) {
    problem = std::to_string(report.jobs_lost) + " jobs lost";
  } else if (!broker.conserved()) {
    problem = "broker not conserved";
  }
  if (!problem.empty()) {
    ++out.failed_runs;
    out.failures.push_back(cell.label + " iteration " + std::to_string(iteration) + ": " +
                           problem);
  }
}

/// Runs every cell of `w` once.
PassStats run_pass(const Workload& w, const PassOptions& opt) {
  LayerClock* clock = opt.clock;
  PassStats out;
  const std::int64_t pass_start = now_ns();
  const std::int64_t pass_cpu_start = cpu_ns();
  const Scope pass_scope(clock, SpanName::kPass, 0);
  for (const Cell& cell : w.cells) {
    const Scope cell_scope(clock, SpanName::kCell, pass_scope.id());
    try {
      std::int64_t t0 = now_ns();
      std::int64_t c0 = cpu_ns();
      const CellSetup cs = prepare_cell(cell, opt, cell_scope.id());
      out.setup_ns += now_ns() - t0;
      out.cpu_setup_ns += cpu_ns() - c0;
      std::vector<std::vector<dlaja::storage::Resource>> carried;
      for (int iteration = 0; iteration < cs.spec.iterations; ++iteration) {
        t0 = now_ns();
        c0 = cpu_ns();
        std::vector<double>* sink =
            opt.collect_jobs && cs.spec.open_arrivals ? &out.turnarounds : nullptr;
        IterationSetup it = prepare_iteration(cs, iteration, opt, cell_scope.id(), sink);
        if (cs.spec.carry_cache) {
          for (std::size_t i = 0; i < carried.size() && i < it.engine->worker_count(); ++i) {
            it.engine->preload_cache(static_cast<dlaja::cluster::WorkerIndex>(i), carried[i]);
          }
        }
        out.setup_ns += now_ns() - t0;
        out.cpu_setup_ns += cpu_ns() - c0;
        run_iteration(cs, it, cell, iteration, opt, cell_scope.id(), out);
        if (cs.spec.carry_cache) carried = it.engine->cache_snapshots();
      }
    } catch (const std::exception& e) {
      ++out.failed_runs;
      out.failures.push_back(cell.label + ": " + e.what());
    }
  }
  out.total_ns = now_ns() - pass_start;
  out.cpu_total_ns = cpu_ns() - pass_cpu_start;
  return out;
}

/// Host time of a pass's set-up alone: spec, trace generation, fleet,
/// scheduler and engine construction for every cell and iteration (cache
/// preloads need a previous run and are left out). Objects are destroyed
/// outside the timed intervals. Timed in process CPU time, like the passes.
std::int64_t setup_only_ns(const Workload& w) {
  const PassOptions opt;
  std::int64_t total = 0;
  for (const Cell& cell : w.cells) {
    const std::int64_t t0 = cpu_ns();
    std::vector<IterationSetup> built;
    const CellSetup cs = prepare_cell(cell, opt, 0);
    for (int iteration = 0; iteration < cs.spec.iterations; ++iteration) {
      built.push_back(prepare_iteration(cs, iteration, opt, 0, nullptr));
    }
    total += cpu_ns() - t0;
  }
  return total;
}

/// One set-up sample: a pass's set-up repeated until it has taken at least
/// kSetupBatchNs, as seconds per repetition.
double setup_batch_s(const Workload& w) {
  std::int64_t ns = 0;
  int reps = 0;
  while (ns < kSetupBatchNs) {
    ns += setup_only_ns(w);
    ++reps;
  }
  return seconds_of(ns) / reps;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

json::Value manifest(const Args& args, const Workload& w, int passes) {
  json::Object m;
  m["workload"] = args.workload;
  m["seed"] = args.seed;
  m["seconds"] = args.seconds;
  m["trace"] = args.trace;
  m["measured_passes"] = passes;
  m["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    m["cpus_allowed"] = static_cast<std::uint64_t>(CPU_COUNT(&set));
  }
  m["cpu_model"] = cpu_model();
  m["build_type"] = LEDGER_BUILD_TYPE;
  m["compiler"] = std::string(LEDGER_COMPILER) + " (" + __VERSION__ + ")";
  m["git_rev"] = args.git_rev;
  m["source_digest"] = args.source_digest;
  // Canonical scenario JSON of every distinct cell shape: the first cell of
  // each label prefix (open_saturation repeats one scenario over engine
  // seeds).
  json::Array scenarios;
  std::vector<std::string> seen;
  for (const Cell& cell : w.cells) {
    const std::string shape = cell.label.substr(0, cell.label.find('@'));
    if (std::find(seen.begin(), seen.end(), shape) != seen.end()) continue;
    seen.push_back(shape);
    json::Object entry;
    entry["scenario"] = json::parse(cell.scenario);
    if (cell.trace_seed) entry["trace_seed"] = *cell.trace_seed;
    scenarios.push_back(json::Value{std::move(entry)});
  }
  m["scenarios"] = json::Value{std::move(scenarios)};
  return json::Value{std::move(m)};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.scenarios);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  };
  auto absorb = [&](const PassStats& p) {
    attempted += p.runs;
    failed += p.failed_runs;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  };

  PassOptions reference_opt;
  reference_opt.unsharded = true;
  reference_opt.collect_jobs = true;
  const PassStats reference = run_pass(w, reference_opt);
  absorb(reference);

  if (w.check_first_cell) {
    // The harness builds cells itself; they must match the library's own
    // experiment runner exactly. The library runs the cell with its own
    // shard count, so a sharded cell is also checked against the
    // single-shard reference here.
    const ExperimentSpec spec = ExperimentSpec::from_json(json::parse(w.cells.front().scenario));
    const std::vector<dlaja::metrics::RunReport> lib = dlaja::core::run_experiment(spec);
    bool same = reference.signature.size() >= kSignatureFields * lib.size();
    for (std::size_t i = 0; same && i < lib.size(); ++i) {
      const auto sig = run_signature(lib[i], 0);
      same = std::equal(sig.begin(), sig.begin() + 3,
                        reference.signature.begin() + kSignatureFields * i);
    }
    check(same, "first cell differs from core::run_experiment");
  }

  // A pass starts only while it is expected to end within the budget, so a
  // run measures for at most about --seconds and never a whole pass longer.
  std::vector<double> setup, wall, cpu, events_per_s, jobs_per_s;
  const std::int64_t measure_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t last_ns = 0;
  while (static_cast<int>(wall.size()) < kMinPasses ||
         now_ns() - measure_start + last_ns < budget_ns) {
    const std::int64_t t0 = now_ns();
    setup.push_back(setup_batch_s(w));
    const PassStats last = run_pass(w, PassOptions{});
    last_ns = now_ns() - t0;
    absorb(last);
    check(last.signature == reference.signature,
          std::string("measured pass ") + std::to_string(wall.size()) +
              " differs from the unsharded reference pass");
    wall.push_back(last.wall_s());
    const double s = last.cpu_s();
    cpu.push_back(s);
    events_per_s.push_back(static_cast<double>(last.fired) / s);
    jobs_per_s.push_back(static_cast<double>(last.completed) / s);
  }
  const double rss = peak_rss_mb();
  const SimMetrics sim = sim_metrics(reference);

  std::vector<Metric> e2e = {
      {"cpu_s", median(cpu), "s"},
      {"setup_s", median(setup), "s"},
      {"sim_events_per_cpu_s", median(events_per_s), "1/s"},
      {"jobs_per_cpu_s", median(jobs_per_s), "1/s"},
      {"peak_rss_mb", rss, "MB"},
      {"sim_makespan_s", sim.makespan_s, "sim_s"},
      {"sim_data_load_mb", sim.data_load_mb, "MB"},
      {"sim_cache_misses", sim.cache_misses, "count"},
      {"sim_turnaround_p50_s", sim.turnaround_p50_s, "sim_s"},
      {"sim_turnaround_p99_s", sim.turnaround_p99_s, "sim_s"},
      {"sim_alloc_latency_s", sim.alloc_latency_s, "sim_s"},
      {"completed_frac", sim.completed_frac, "ratio"},
  };

  std::vector<Metric> layer;
  if (args.trace) {
    SpanLog spans;
    LayerClock clock(spans);
    PassOptions traced_opt;
    traced_opt.clock = &clock;
    traced_opt.probe_interval_s = w.probe_interval_s;
    const PassStats traced = run_pass(w, traced_opt);
    absorb(traced);
    check(traced.signature == reference.signature, "traced pass differs from the untraced passes");

    std::filesystem::create_directories(args.out);
    const std::size_t span_count = spans.write_csv(args.out + "/" + w.name + ".spans.csv");

    const double run_s = seconds_of(clock.run_ns);
    const double submit_s = seconds_of(clock.submit_ns);
    const double notify_s = seconds_of(clock.notify_ns.load());
    const double next_s = seconds_of(clock.next_ns);
    const double probe_s = seconds_of(clock.probe_ns);
    const double self_s = run_s - submit_s - notify_s - next_s - probe_s;
    std::vector<double> submit_samples(clock.submit_samples_ns.begin(),
                                       clock.submit_samples_ns.end());
    const dlaja::Summary submit = dlaja::summarize(submit_samples);
    auto share = [run_s](double part) { return run_s > 0.0 ? part / run_s : 0.0; };

    // Worker queue probes: split the walks at their median mean depth to
    // show how the backlog estimate's cost follows queue depth.
    double depth_sum = 0.0, calls = 0.0, ns = 0.0;
    std::uint32_t depth_max = 0;
    std::vector<double> depths;
    for (const ProbePoint& p : clock.probe_points) {
      depth_sum += p.depth_sum;
      calls += p.workers;
      ns += static_cast<double>(p.ns);
      depth_max = std::max(depth_max, p.depth_max);
      depths.push_back(p.workers > 0 ? p.depth_sum / p.workers : 0.0);
    }
    const double depth_split = median(depths);
    double shallow_ns = 0.0, shallow_calls = 0.0, deep_ns = 0.0, deep_calls = 0.0;
    for (std::size_t i = 0; i < clock.probe_points.size(); ++i) {
      const ProbePoint& p = clock.probe_points[i];
      (depths[i] > depth_split ? deep_ns : shallow_ns) += static_cast<double>(p.ns);
      (depths[i] > depth_split ? deep_calls : shallow_calls) += p.workers;
    }
    auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double completed = static_cast<double>(traced.completed);

    layer = {
        {"sched.submit_s", submit_s, "s"},
        {"sched.submit_calls", static_cast<double>(clock.submit_samples_ns.size()), "count"},
        {"sched.submit_ns_p50", submit.p50, "ns"},
        {"sched.submit_ns_p99", submit.p99, "ns"},
        {"sched.submit_share", share(submit_s), "ratio"},
        {"sched.notify_s", notify_s, "s"},
        {"sched.notify_calls", static_cast<double>(clock.notify_calls.load()), "count"},
        {"sched.notify_share", share(notify_s), "ratio"},
        {"sched.contests", static_cast<double>(traced.contests), "count"},
        {"sched.probes_sent", static_cast<double>(traced.probes_sent), "count"},
        {"sched.bids", static_cast<double>(traced.bids), "count"},
        {"sched.build_s", seconds_of(clock.sched_build_ns), "s"},
        {"worker.queue_depth_mean", per(depth_sum, calls), "count"},
        {"worker.queue_depth_max", static_cast<double>(depth_max), "count"},
        {"worker.backlog_ns_per_call", per(ns, calls), "ns"},
        {"worker.backlog_ns_shallow", per(shallow_ns, shallow_calls), "ns"},
        {"worker.backlog_ns_deep", per(deep_ns, deep_calls), "ns"},
        {"worker.backlog_calls", calls, "count"},
        {"worker.probe_s", probe_s, "s"},
        {"cluster.fleet_build_s", seconds_of(clock.fleet_ns), "s"},
        {"storage.hits", static_cast<double>(traced.cache_hits), "count"},
        {"storage.misses", static_cast<double>(traced.cache_misses), "count"},
        {"storage.evictions", static_cast<double>(traced.evictions), "count"},
        {"msg.enqueued", static_cast<double>(traced.enqueued), "count"},
        {"msg.delivered", static_cast<double>(traced.delivered), "count"},
        {"msg.per_job", per(static_cast<double>(traced.delivered), completed), "count"},
        {"msg.conserved", traced.unconserved_runs == 0 ? 1.0 : 0.0, "bool"},
        {"sim.fired", static_cast<double>(traced.fired), "count"},
        {"sim.scheduled", static_cast<double>(traced.scheduled), "count"},
        {"sim.cancelled", static_cast<double>(traced.cancelled), "count"},
        {"sim.events_per_job", per(static_cast<double>(traced.fired), completed), "count"},
        {"sim.turnaround_samples", static_cast<double>(sim.turnaround_samples), "count"},
        {"core.run_s", run_s, "s"},
        {"core.pass_wall_s", median(wall), "s"},
        {"core.run_self_s", self_s, "s"},
        {"core.run_self_share", share(self_s), "ratio"},
        {"core.engine_ctor_s", seconds_of(clock.ctor_ns), "s"},
        {"core.spec_s", seconds_of(clock.spec_ns), "s"},
        {"core.runs", static_cast<double>(traced.runs), "count"},
        {"core.retries", static_cast<double>(traced.retries), "count"},
        {"core.dead_lettered", static_cast<double>(traced.dead_lettered), "count"},
        {"core.failed_frac", 1.0 - sim.completed_frac, "ratio"},
        {"workload.gen_s", seconds_of(clock.gen_ns), "s"},
        {"workload.next_s", next_s, "s"},
        {"workload.next_calls", static_cast<double>(clock.next_calls), "count"},
        {"workload.next_share", share(next_s), "ratio"},
        {"obs.telemetry_rows", static_cast<double>(reference.telemetry_rows), "count"},
        {"obs.trace_overhead", traced.wall_s() / median(wall), "ratio"},
        {"obs.spans", static_cast<double>(span_count), "count"},
    };
  }

  auto to_json = [](const std::vector<Metric>& metrics) {
    json::Object obj;
    for (const Metric& m : metrics) {
      json::Object entry;
      entry["value"] = m.value;
      entry["unit"] = m.unit;
      obj[m.name] = json::Value{std::move(entry)};
    }
    return json::Value{std::move(obj)};
  };

  json::Object full;
  full["manifest"] = manifest(args, w, static_cast<int>(wall.size()));
  full["end_to_end"] = to_json(e2e);
  json::Array pass_walls(wall.begin(), wall.end());
  full["pass_wall_s"] = json::Value{std::move(pass_walls)};
  json::Array pass_cpus(cpu.begin(), cpu.end());
  full["pass_cpu_s"] = json::Value{std::move(pass_cpus)};
  if (args.trace) full["per_layer"] = to_json(layer);
  json::Array failure_list;
  for (const std::string& f : failures) failure_list.push_back(f);
  full["failures"] = json::Value{std::move(failure_list)};
  std::filesystem::create_directories(args.out);
  const std::string result_path = args.out + "/" + w.name + "-seed" + std::to_string(args.seed) +
                                  (args.trace ? "-trace" : "") + ".json";
  std::ofstream(result_path) << json::Value{full}.dump(2) << '\n';

  for (const std::string& f : failures) std::cout << "FAILED " << f << '\n';
  std::cout << "report " << json::Value{full}.dump() << '\n';

  json::Object result;
  result["correct"] = failed == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = to_json(args.trace ? layer : e2e);
  std::cout << json::Value{std::move(result)}.dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  try {
    return ledger::run(ledger::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perf_ledger: " << e.what() << '\n';
    return 2;
  }
}
