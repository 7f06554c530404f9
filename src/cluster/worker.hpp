#pragma once
// The simulated worker node.
//
// A worker owns a FIFO queue of assigned jobs (the paper: "worker nodes
// schedule tasks in FIFO order"), a local resource cache, and nominal
// network / read-write speeds. It provides the two halves of the paper's
// worker logic:
//
//   * estimation (Listing 2, sendBid): backlog cost + data-transfer
//     estimate + processing estimate, computed from the speed estimators
//     (nominal speeds in §6.3, historic averages in §6.4);
//   * execution (Listing 2, consumeJob): on a cache miss the resource is
//     downloaded at a noise-perturbed effective bandwidth (recording the
//     cache miss and the data load), then the job is processed at a
//     noise-perturbed read/write speed.
//
// The worker is protocol-agnostic: schedulers drive it through enqueue()
// and the estimation queries, and observe it through the on_complete /
// on_idle callbacks.

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/protocol.hpp"
#include "cluster/speed_estimator.hpp"
#include "metrics/collector.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/cache.hpp"
#include "workflow/workflow.hpp"

namespace dlaja::cluster {

class WorkerNode {
 public:
  /// `node` must already be registered with `network` using the worker's
  /// link characteristics. `estimation_mode` selects nominal (§6.3) or
  /// historic-average (§6.4) speeds for bids.
  WorkerNode(WorkerIndex index, const WorkerConfig& config, sim::Simulator& simulator,
             net::NetworkModel& network, net::NodeId node,
             metrics::MetricsCollector& metrics, const SeedSequencer& seeds,
             SpeedEstimator::Mode estimation_mode = SpeedEstimator::Mode::kNominal);

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  // --- Estimation (pure queries; never touch the metrics) ---------------

  /// True if the job's resource is resident locally (or it needs none).
  [[nodiscard]] bool has_local(const workflow::Job& job) const noexcept;

  /// True if the resource is resident *or will be*: a job already accepted
  /// into the FIFO queue (or in flight) downloads it before any later job
  /// runs. Listing 2's estimate covers "all unfinished jobs that have been
  /// previously allocated", so a worker quoting a job whose resource is
  /// pending quotes zero transfer for it.
  [[nodiscard]] bool has_local_or_pending(storage::ResourceId resource) const noexcept;

  /// Estimated seconds to finish every unfinished job already allocated:
  /// the remaining estimate of the in-flight job plus the estimates of all
  /// queued jobs (Listing 2 line 2, totalCostOfUnfinishedJobs).
  [[nodiscard]] double backlog_cost_s() const;

  /// Estimated seconds to obtain the job's resource: 0 when cached, else
  /// size / estimated network speed (Listing 2 line 4).
  [[nodiscard]] double estimate_transfer_s(const workflow::Job& job) const;

  /// Estimated seconds to process: volume / estimated rw speed plus the
  /// job's fixed cost (Listing 2 line 5).
  [[nodiscard]] double estimate_processing_s(const workflow::Job& job) const;

  /// The full bid: backlog + transfer + processing (Listing 2 lines 2-5).
  [[nodiscard]] double estimate_bid_s(const workflow::Job& job) const;

  /// Samples the delay before this worker's bid reaches the wire: the
  /// bidding thread's compute time, occasionally stretched by a straggle
  /// (which can exceed the master's window). Deterministic per stream.
  [[nodiscard]] Tick sample_bid_delay();

  // --- Execution --------------------------------------------------------

  /// Accepts an assignment into the FIFO queue and starts it if idle.
  /// Assignments to a failed worker are dropped (no fault tolerance — the
  /// paper explicitly leaves this open; see §5).
  void enqueue(const workflow::Job& job);

  /// Routes this worker's bulk downloads through a shared-bandwidth flow
  /// network instead of the independent-bandwidth model. Call before any
  /// job executes. The worker keeps estimating with its nominal bandwidth
  /// (it cannot know future contention), so estimates degrade honestly
  /// under congestion.
  void set_flow_network(net::FlowNetwork* flows) noexcept { flows_ = flows; }

  /// Simulates the §6.4 up-front speed probe: measures effective network
  /// and rw speed on a `probe_mb` resource and seeds the estimators.
  void probe_speeds(MegaBytes probe_mb = 100.0);

  /// Kills / revives the worker. Killing cancels in-flight completions and
  /// drains the queue; the jobs that were lost (in-flight + queued, FIFO
  /// order) are *returned* so a fault-tolerant caller can resubmit them —
  /// the paper itself has no such policy (§5) and simply drops them.
  /// Reviving returns an empty vector; callers re-probe and re-register the
  /// worker themselves.
  [[nodiscard]] std::vector<workflow::Job> set_failed(bool failed);

  /// Points the worker at its engine's liveness epoch: a counter that
  /// set_failed() bumps whenever the failed() flag actually flips, so a
  /// reader can cache anything derived from the fleet's alive set and
  /// rebuild it only when the counter has moved. Null (the default) keeps
  /// no epoch.
  void set_liveness_epoch(std::uint64_t* epoch) noexcept { liveness_epoch_ = epoch; }

  /// True if `id` is currently held by this worker (queued or in flight).
  /// Used by the lifecycle's lease probe.
  [[nodiscard]] bool has_job(workflow::JobId id) const noexcept;

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// Current tick of the simulator this worker runs on. Telemetry keys its
  /// per-sample backlog memo on this.
  [[nodiscard]] Tick now() const noexcept { return sim_.now(); }
  [[nodiscard]] bool busy() const noexcept { return busy_slots() > 0; }
  [[nodiscard]] bool idle() const noexcept { return !busy() && queue_.empty(); }
  /// Occupied execution slots (0..config().slots).
  [[nodiscard]] std::size_t busy_slots() const noexcept;
  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] WorkerIndex index() const noexcept { return index_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const WorkerConfig& config() const noexcept { return config_; }
  [[nodiscard]] storage::ResourceCache& cache() noexcept { return cache_; }
  [[nodiscard]] const storage::ResourceCache& cache() const noexcept { return cache_; }
  [[nodiscard]] SpeedEstimator& network_estimator() noexcept { return net_est_; }
  [[nodiscard]] SpeedEstimator& rw_estimator() noexcept { return rw_est_; }

  /// Invoked (if set) when a job finishes, before the next one starts.
  std::function<void(const workflow::Job&, WorkerIndex)> on_complete;

  /// Invoked (if set) when the worker becomes idle (queue drained).
  std::function<void(WorkerIndex)> on_idle;

 private:
  /// One parallel execution lane.
  struct ExecSlot {
    workflow::Job job;
    Tick est_finish = 0;  ///< frozen completion estimate (backlog queries)
    sim::EventId event{};
    net::FlowId flow{};
    Tick transfer_started = 0;
  };

  /// Starts queued jobs on free slots (FIFO order).
  void fill_slots();
  /// Phase 1 of a missing-resource job: the download (fixed-duration event
  /// or shared flow).
  void begin_transfer(std::size_t slot);
  /// Transfer done: admit the clone, move to processing.
  void complete_transfer(std::size_t slot);
  /// Phase 2: processing (always a fixed-duration event).
  void begin_processing(std::size_t slot, Tick transfer_ticks_taken,
                        MegaBytes transferred_mb, bool was_miss);
  void finish_slot(std::size_t slot, Tick duration, Tick transfer_ticks_taken,
                   MegaBytes transferred_mb, bool was_miss);

  WorkerIndex index_;
  WorkerConfig config_;
  sim::Simulator& sim_;
  net::NetworkModel& net_;
  net::NodeId node_;
  metrics::MetricsCollector& metrics_;
  storage::ResourceCache cache_;
  SpeedEstimator net_est_;
  SpeedEstimator rw_est_;
  RandomStream disk_rng_;  ///< rw-speed noise draws
  RandomStream bid_rng_;   ///< bid-delay / straggle draws

  std::deque<workflow::Job> queue_;
  /// The four Job fields backlog_cost_s reads, mirrored densely and kept in
  /// lockstep with queue_: the estimate walks ~32 bytes per queued job
  /// instead of dragging each Job's correlation-key string through the
  /// cache (the walk sits on the bidding and telemetry hot paths).
  struct QueuedCost {
    storage::ResourceId resource = 0;
    MegaBytes resource_size_mb = 0.0;
    MegaBytes process_mb = 0.0;
    Tick fixed_cost = 0;
  };
  std::deque<QueuedCost> queue_costs_;
  /// Execution lanes; null = free. Size == config().slots.
  std::vector<std::unique_ptr<ExecSlot>> slots_;
  /// Resources of unfinished (in-flight + queued) jobs, with multiplicity.
  std::unordered_map<storage::ResourceId, std::uint32_t> pending_resources_;
  net::FlowNetwork* flows_ = nullptr;
  bool failed_ = false;
  std::uint64_t* liveness_epoch_ = nullptr;  ///< bumped when failed_ flips
  /// Reused assumed-local scratch for backlog_cost_s (avoids a heap
  /// allocation per estimate on the bidding / telemetry hot paths).
  mutable std::vector<storage::ResourceId> backlog_scratch_;

  /// Interns the worker's span names on first traced use.
  void ensure_trace_names();
  std::uint16_t trace_transfer_ = 0;  ///< "transfer": miss download span
  std::uint16_t trace_process_ = 0;   ///< "process": processing span
  bool trace_names_ready_ = false;
};

}  // namespace dlaja::cluster
