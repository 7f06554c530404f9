#include "core/engine.hpp"

#include <algorithm>
#include <any>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace dlaja::core {

using cluster::CompletionReport;
using cluster::WorkerIndex;

Engine::Engine(const std::vector<cluster::WorkerConfig>& fleet,
               std::unique_ptr<sched::Scheduler> scheduler, EngineConfig config)
    : config_(config),
      seeds_(config.seed),
      metrics_(fleet.size()),
      scheduler_(std::move(scheduler)),
      expansion_rng_(seeds_.seed_for("expansion")) {
  if (fleet.empty()) throw std::invalid_argument("Engine: empty fleet");
  if (!scheduler_) throw std::invalid_argument("Engine: null scheduler");
  if (config_.shards == 0) throw std::invalid_argument("Engine: shards must be >= 1");
  if (config_.shards > fleet.size()) {
    throw std::invalid_argument("Engine: more shards than workers");
  }
  if (config_.shards > 1 && !scheduler_->supports_sharding()) {
    throw std::invalid_argument("Engine: scheduler '" + scheduler_->name() +
                                "' does not support sharded execution");
  }

  network_ = std::make_unique<net::NetworkModel>(seeds_, config_.noise);
  master_node_ = network_->register_node("master", config_.master_link);
  broker_ = std::make_unique<msg::Broker>(sim_, *network_);
  // Opt-in: coalescing changes the kernel event counts (part of the run's
  // stats signature), so only scale runs that ask for it get it.
  broker_->set_coalescing(config_.coalesce_deliveries);

  // Worker shards: worker w lives on shard w % N (round-robin keeps the
  // paper's speed-spread presets balanced), with its own event queue and
  // metrics buffers. The master plus broker/lifecycle bookkeeping stay on
  // the engine's own simulator — the control shard.
  if (config_.shards > 1) {
    shards_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(fleet.size()));
    }
    worker_shard_.reserve(fleet.size());
  }

  workers_.reserve(fleet.size());
  worker_nodes_.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const cluster::WorkerConfig& cfg = fleet[i];
    net::LinkConfig link;
    link.bandwidth_mbps = cfg.network_mbps;
    link.latency_ms = cfg.latency_ms;
    link.latency_jitter_ms = cfg.latency_jitter_ms;
    const net::NodeId node = network_->register_node(cfg.name, link);
    worker_nodes_.push_back(node);
    sim::Simulator* worker_sim = &sim_;
    metrics::MetricsCollector* worker_metrics = &metrics_;
    if (!shards_.empty()) {
      const auto shard = static_cast<std::uint32_t>(i % shards_.size());
      worker_shard_.push_back(shard);
      worker_sim = &shards_[shard]->sim;
      worker_metrics = &shards_[shard]->metrics;
    }
    workers_.push_back(std::make_unique<cluster::WorkerNode>(
        static_cast<WorkerIndex>(i), cfg, *worker_sim, *network_, node, *worker_metrics,
        seeds_, config_.estimation));
    workers_.back()->set_liveness_epoch(&liveness_epoch_);
  }

  if (config_.shared_bandwidth) {
    if (sharded()) {
      // Per-shard flow slabs: bulk transfers contend within their shard
      // (each slab gets the full origin capacity — cross-shard origin
      // contention is intentionally not modelled in sharded runs).
      for (auto& shard : shards_) {
        shard->flows =
            std::make_unique<net::FlowNetwork>(shard->sim, config_.origin_capacity_mbps);
      }
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        net::FlowNetwork* flows = shards_[worker_shard_[i]]->flows.get();
        flows->set_node_capacity(worker_nodes_[i], fleet[i].network_mbps);
        workers_[i]->set_flow_network(flows);
      }
    } else {
      flow_network_ = std::make_unique<net::FlowNetwork>(sim_, config_.origin_capacity_mbps);
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        flow_network_->set_node_capacity(worker_nodes_[i], fleet[i].network_mbps);
        workers_[i]->set_flow_network(flow_network_.get());
      }
    }
  }

  // Worker callbacks: report completions to the master over the broker;
  // surface idleness to the scheduler (it runs worker-side logic there).
  // The completions mailbox id is resolved up front: interning it lazily
  // from a completion callback would mutate broker tables on a shard thread.
  completions_box_ = broker_->mailbox(cluster::mailboxes::kCompletions);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const auto w = static_cast<WorkerIndex>(i);
    workers_[i]->on_complete = [this, w](const workflow::Job& job, WorkerIndex) {
      broker_->send(worker_nodes_[w], master_node_, completions_box_,
                    CompletionReport{job.id, w});
      scheduler_->on_worker_capacity(w);
    };
    workers_[i]->on_idle = [this](WorkerIndex idle_worker) {
      scheduler_->on_worker_idle(idle_worker);
    };
  }

  // Master-side completion handling.
  broker_->register_mailbox(
      master_node_, cluster::mailboxes::kCompletions, [this](const msg::Message& message) {
        const auto& report = message.payload.as<CompletionReport>();
        const auto it = live_jobs_.find(report.job_id);
        if (it == live_jobs_.end()) return;  // duplicate report
        const workflow::Job job = it->second;
        live_jobs_.erase(it);
        master_handle_completion(report, job);
      });

  // Fault machinery. Everything here is gated: a fault-free run constructs
  // no lifecycle, schedules no fault, installs no message policy and draws
  // nothing from the fault substreams — bit-identical to builds before the
  // fault subsystem existed.
  if (!config_.faults.empty()) config_.lifecycle.enabled = true;
  if (config_.lifecycle.enabled) {
    JobLifecycle::Callbacks callbacks;
    callbacks.resubmit = [this](workflow::Job job) {
      job.id = 0;  // fresh copy; submit_job assigns the id and re-tracks
      submit_job(std::move(job));
    };
    callbacks.worker_holds = [this](workflow::JobId id, WorkerIndex w) {
      return w < workers_.size() && !workers_[w]->failed() && workers_[w]->has_job(id);
    };
    callbacks.abandon = [this](workflow::JobId id, WorkerIndex w) {
      live_jobs_.erase(id);  // a late completion of this attempt is ignored
      if (w != cluster::kNoWorker) scheduler_->on_assignment_void(id, w);
    };
    lifecycle_ =
        std::make_unique<JobLifecycle>(sim_, metrics_, config_.lifecycle, std::move(callbacks));
    // Sharded: a lease probe reads worker state owned by another shard's
    // thread, so expiries queue up and are probed at window barriers.
    if (sharded()) lifecycle_->set_barrier_probes(true);
  }
  // The plan's timeline, scheduled in a fixed order (crashes, degrade
  // windows, scheduler crashes): single-shard runs fire faults as simulator
  // events, so this order is their same-tick order.
  for (const fault::CrashEvent& crash :
       config_.faults.materialize_crashes(seeds_, workers_.size())) {
    const auto w = static_cast<WorkerIndex>(crash.worker);
    schedule_fault(TimedFault{crash.at, TimedFault::Kind::kCrash, w});
    if (crash.down_for > 0) {
      schedule_fault(TimedFault{crash.at + crash.down_for, TimedFault::Kind::kRecover, w});
    }
  }
  for (const fault::DegradeWindow& window : config_.faults.degradations) {
    if (window.worker >= workers_.size()) {
      throw std::invalid_argument("fault plan: degrade worker index " +
                                  std::to_string(window.worker) + " out of range");
    }
    // Windows end by restoring the nominal multiplier; overlapping windows
    // on one node therefore resolve last-writer-wins.
    const auto w = static_cast<WorkerIndex>(window.worker);
    schedule_fault(TimedFault{window.at, TimedFault::Kind::kDegrade, w, window.factor});
    schedule_fault(
        TimedFault{window.at + window.duration, TimedFault::Kind::kDegrade, w, 1.0});
  }
  for (const fault::SchedCrashEvent& crash : config_.faults.sched_crashes) {
    schedule_fault(TimedFault{crash.at, TimedFault::Kind::kSchedCrash, crash.instance});
    if (crash.down_for > 0) {
      schedule_fault(TimedFault{crash.at + crash.down_for, TimedFault::Kind::kSchedRecover,
                                crash.instance});
    }
  }

  sched::SchedulerContext ctx;
  ctx.sim = &sim_;
  ctx.broker = broker_.get();
  ctx.network = network_.get();
  ctx.metrics = &metrics_;
  ctx.master_node = master_node_;
  ctx.seeds = &seeds_;
  for (auto& worker : workers_) ctx.workers.push_back(worker.get());
  ctx.worker_nodes = worker_nodes_;
  ctx.liveness_epoch = &liveness_epoch_;
  if (sharded()) {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      ctx.worker_sims.push_back(&shards_[worker_shard_[i]]->sim);
      ctx.worker_metrics.push_back(&shards_[worker_shard_[i]]->metrics);
    }
  }
  if (lifecycle_) {
    ctx.notify_assigned = [this](workflow::JobId id, WorkerIndex w, double estimate_s) {
      lifecycle_->assigned(id, w, estimate_s);
    };
    ctx.notify_unassignable = [this](const workflow::Job& job) {
      lifecycle_->unassignable(job);
    };
  }
  ctx.fault_aware = config_.lifecycle.enabled;
  if (telemetry_on()) {
    ctx.probes = &probes_;
    if (sharded()) {
      // Telemetry shard tags: sampler index in the engine's simulator array
      // (0 = control shard, worker shard s = s + 1).
      ctx.worker_shards.reserve(workers_.size());
      for (const std::uint32_t shard : worker_shard_) {
        ctx.worker_shards.push_back(shard + 1);
      }
    }
  }
  scheduler_->attach(ctx);
  if (telemetry_on()) register_probes();

  if (sharded()) {
    // Conservative lookahead: any cross-shard message spends at least the
    // source link's base latency plus the destination link's base latency in
    // flight, so the tightest bound over all node pairs is the sum of the
    // two smallest base latencies in the cluster.
    double min1 = std::numeric_limits<double>::infinity();
    double min2 = std::numeric_limits<double>::infinity();
    for (net::NodeId node = 0; node < network_->node_count(); ++node) {
      const double latency = network_->link(node).latency_ms;
      if (latency < min1) {
        min2 = min1;
        min1 = latency;
      } else if (latency < min2) {
        min2 = latency;
      }
    }
    lookahead_ = ticks_from_millis(min1 + min2);
    if (lookahead_ <= 0) {
      throw std::invalid_argument(
          "Engine: sharded runs need a nonzero control-plane base latency "
          "(the conservative window lookahead would be zero)");
    }

    msg::ShardLayout layout;
    layout.sims.push_back(&sim_);
    for (auto& shard : shards_) layout.sims.push_back(&shard->sim);
    layout.node_shard.assign(network_->node_count(), 0);  // master et al -> control
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      layout.node_shard[worker_nodes_[i]] = worker_shard_[i] + 1;
    }
    for (std::size_t s = 0; s < layout.sims.size(); ++s) {
      layout.delay_seeds.push_back(
          seeds_.seed_for("msg/delay/shard" + std::to_string(s)));
    }
    broker_->enable_sharding(std::move(layout));
  }

  if (config_.faults.messages.any()) {
    // One drop/dup stream per broker shard, consulted for the deliveries its
    // senders make, so the policy never contends across threads. Per
    // delivery, in event order: drop first, then dup, never both.
    const fault::MessageFaults messages = config_.faults.messages;
    for (std::size_t s = 0; s < 1 + shards_.size(); ++s) {
      auto rng = std::make_shared<RandomStream>(seeds_.seed_for(
          sharded() ? "fault/messages/shard" + std::to_string(s) : "fault/messages"));
      broker_->set_shard_fault_policy(
          s, [rng, messages](net::NodeId, net::NodeId) -> std::uint32_t {
            if (messages.drop_p > 0.0 && rng->bernoulli(messages.drop_p)) return 0;
            if (messages.dup_p > 0.0 && rng->bernoulli(messages.dup_p)) return 2;
            return 1;
          });
    }
  }
}

void Engine::set_workflow(std::shared_ptr<const workflow::Workflow> wf) {
  if (ran_) throw std::logic_error("Engine::set_workflow: run() already called");
  if (wf) (void)wf->topological_order();  // rejects cyclic graphs up front
  workflow_ = std::move(wf);
}

void Engine::preload_cache(WorkerIndex w, std::span<const storage::Resource> resources) {
  if (ran_) throw std::logic_error("Engine::preload_cache: run() already called");
  worker(w).cache().restore(resources);
}

std::vector<std::vector<storage::Resource>> Engine::cache_snapshots() const {
  std::vector<std::vector<storage::Resource>> snapshots;
  snapshots.reserve(workers_.size());
  for (const auto& worker : workers_) snapshots.push_back(worker->cache().snapshot());
  return snapshots;
}

cluster::WorkerNode& Engine::worker(WorkerIndex w) {
  if (w >= workers_.size()) throw std::out_of_range("Engine::worker: bad index");
  return *workers_[w];
}

void Engine::fail_worker_at(WorkerIndex w, Tick at) {
  schedule_fault(TimedFault{at, TimedFault::Kind::kCrash, worker(w).index()});
}

void Engine::recover_worker_at(WorkerIndex w, Tick at) {
  schedule_fault(TimedFault{at, TimedFault::Kind::kRecover, worker(w).index()});
}

void Engine::schedule_fault(const TimedFault& fault) {
  if (sharded()) {
    // Applied at window barriers: an event would mutate worker and network
    // state that a shard thread may be reading mid-window.
    fault_timeline_.push_back(fault);
    return;
  }
  auto fire = [this, fault] { apply_timed_fault(fault); };
  static_assert(sim::InlineAction::fits_inline<decltype(fire)>());
  sim_.schedule_at(fault.at, std::move(fire));
}

void Engine::apply_crash(WorkerIndex w) {
  cluster::WorkerNode* target = workers_[w].get();
  if (target->failed()) return;  // overlapping schedules: already down
  DLAJA_LOG(kInfo, "engine") << sim_.log_prefix() << "worker " << w << " failed";
  const std::vector<workflow::Job> lost = target->set_failed(true);
  broker_->set_node_down(worker_nodes_[w], true);
  ++crashes_;
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    ensure_trace_names();
    sim_.tracer()->instant(obs::Component::kFault, trace_crash_, w, sim_.now(),
                           lost.size());
  }
  if (lifecycle_) {
    // The lease machinery voids exactly the attempts assigned to this
    // worker — a superset of `lost` (it also covers assignments still in
    // flight to the now-dead node).
    lifecycle_->worker_crashed(w);
    return;
  }
  if (!config_.reassign_on_failure) return;
  // Future-work extension: the master redistributes every incomplete job
  // it had assigned to the dead worker (it knows its own assignments).
  std::vector<workflow::Job> orphans;
  for (const auto& [id, job] : live_jobs_) {
    const metrics::JobRecord* record = metrics_.find_job(id);
    if (record != nullptr && record->worker == w && !record->completed()) {
      orphans.push_back(job);
    }
  }
  for (workflow::Job orphan : orphans) {
    live_jobs_.erase(orphan.id);  // the original can never complete
    orphan.id = 0;                // resubmit as a fresh copy
    ++reassigned_;
    submit_job(std::move(orphan));
  }
}

void Engine::apply_recover(WorkerIndex w) {
  cluster::WorkerNode* target = workers_[w].get();
  if (!target->failed()) return;  // never crashed, or recovered already
  DLAJA_LOG(kInfo, "engine") << sim_.log_prefix() << "worker " << w << " recovered";
  (void)target->set_failed(false);  // a live worker holds no lost jobs
  broker_->set_node_down(worker_nodes_[w], false);
  ++recoveries_;
  // Rejoin with fresh speed knowledge, mirroring the startup sequence.
  if (config_.probe_speeds) target->probe_speeds();
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    ensure_trace_names();
    sim_.tracer()->instant(obs::Component::kFault, trace_recover_, w, sim_.now());
  }
  // The scheduler re-registers the worker (pull polling restarts, push
  // placement sees it via failed() == false again).
  scheduler_->on_worker_recovered(w);
}

void Engine::submit_job(workflow::Job job) {
  // Ids must be unique across the whole run (metrics records persist after
  // completion), so any id that was ever seen is remapped to a fresh one.
  if (job.id == 0 || metrics_.find_job(job.id) != nullptr) {
    job.id = next_job_id_;
  }
  next_job_id_ = std::max(next_job_id_, job.id) + 1;
  job.created_at = sim_.now();
  live_jobs_.emplace(job.id, job);
  ++submitted_;
  metrics_.job(job.id).arrived = sim_.now();
  // Track before the scheduler sees the job: a synchronous assignment (push
  // schedulers) must find the lifecycle entry when it starts the lease.
  if (lifecycle_) lifecycle_->track(job);
  scheduler_->submit(job);
}

void Engine::ensure_trace_names() {
  if (trace_names_ready_) return;
  trace_names_ready_ = true;
  trace_job_ = sim_.tracer()->intern("job");
  trace_crash_ = sim_.tracer()->intern("crash");
  trace_recover_ = sim_.tracer()->intern("recover");
}

void Engine::master_handle_completion(const CompletionReport& report,
                                      const workflow::Job& job) {
  ++completed_;
  if (lifecycle_) lifecycle_->completed(job.id);
  if (streaming_) {
    const metrics::JobRecord* record = metrics_.find_job(job.id);
    const Tick arrived =
        record != nullptr && record->arrived != kNeverTick ? record->arrived : job.created_at;
    sojourn_hist_->record(seconds_from_ticks(sim_.now() - arrived));
  }
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    ensure_trace_names();
    const metrics::JobRecord& record = metrics_.job(job.id);
    const Tick arrived = record.arrived != kNeverTick ? record.arrived : sim_.now();
    sim_.tracer()->span(obs::Component::kCore, trace_job_, report.worker, arrived,
                        sim_.now(), job.id);
  }
  scheduler_->on_completion(report);
  // Streaming, single-shard: fold the finished record into the collector's
  // retired aggregates so memory stays O(live jobs). Sharded runs keep the
  // records — each worker shard's collector holds half of every record
  // until the end-of-run absorb, so retiring here would corrupt the merge.
  if (streaming_ && !sharded()) metrics_.retire_job(job.id);

  if (!workflow_ || job.task >= workflow_->task_count()) return;
  const workflow::TaskSpec& spec = workflow_->task(job.task);
  if (!spec.expand) return;
  std::vector<workflow::Job> downstream = spec.expand(job, expansion_rng_);
  for (workflow::Job& next : downstream) {
    if (!workflow_->connected(job.task, next.task)) {
      throw std::logic_error("Engine: expander of task '" + spec.name +
                             "' produced a job for a non-downstream task");
    }
    next.id = 0;  // engine assigns
    submit_job(std::move(next));
  }
}

void Engine::apply_timed_fault(const TimedFault& fault) {
  switch (fault.kind) {
    case TimedFault::Kind::kCrash: apply_crash(fault.worker); break;
    case TimedFault::Kind::kRecover: apply_recover(fault.worker); break;
    case TimedFault::Kind::kDegrade:
      network_->set_degradation(worker_nodes_[fault.worker], fault.factor);
      break;
    case TimedFault::Kind::kSchedCrash:
      ++sched_crashes_;
      scheduler_->on_scheduler_crash(fault.worker);
      break;
    case TimedFault::Kind::kSchedRecover:
      scheduler_->on_scheduler_recovered(fault.worker);
      break;
  }
}

namespace {

/// Per-worker backlog series are emitted only for small fleets; larger
/// fleets keep the cluster-wide aggregates so a 10k-worker run does not
/// carry 10k telemetry columns.
constexpr std::size_t kPerWorkerSeriesMax = 16;

}  // namespace

void Engine::register_probes() {
  // Shard tags follow the sampler layout: 0 = the control shard (master,
  // scheduler, lifecycle, broker bookkeeping), worker shard s tags as s + 1.
  // Single-shard runs put everything on 0. Every callback is a pure read.
  probes_.add_gauge("master.pending_jobs", 0, [this] {
    return static_cast<double>(scheduler_->pending_jobs());
  });
  probes_.add_gauge("master.live_jobs", 0,
                    [this] { return static_cast<double>(live_jobs_.size()); });
  probes_.add_gauge("master.completed_jobs", 0,
                    [this] { return static_cast<double>(completed_); });

  const bool per_worker = workers_.size() <= kPerWorkerSeriesMax;
  backlog_memos_.assign(workers_.size(), BacklogMemo{});
  // Fleet aggregates: one gauge per (series, shard) walks its shard's worker
  // group, so registration cost and the per-sample call count stay O(shards)
  // instead of O(workers). Summation runs in ascending worker order within a
  // group — the same order per-worker gauges would have summed in — and
  // per-shard partial sums merge into one cluster-wide series.
  worker_groups_.assign(sharded() ? shards_.size() : 1, {});
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    worker_groups_[sharded() ? worker_shard_[i] : 0].push_back(i);
  }
  for (std::size_t g = 0; g < worker_groups_.size(); ++g) {
    const std::uint32_t shard = sharded() ? static_cast<std::uint32_t>(g) + 1 : 0u;
    const std::vector<std::size_t>* group = &worker_groups_[g];
    // The backlog estimate is the one non-trivial gauge (it replays the FIFO
    // queue), and each worker's value can feed two series at the same tick —
    // memoize it per sampled tick so each sample walks each queue once.
    probes_.add_gauge("worker.backlog_s", shard, [this, group] {
      double total = 0.0;
      for (const std::size_t i : *group) {
        cluster::WorkerNode* node = workers_[i].get();
        BacklogMemo& memo = backlog_memos_[i];
        const Tick now = node->now();
        if (memo.at != now) memo = {now, node->backlog_cost_s()};
        total += memo.value;
      }
      return total;
    });
    probes_.add_gauge("worker.queued", shard, [this, group] {
      double total = 0.0;
      for (const std::size_t i : *group) {
        total += static_cast<double>(workers_[i]->queue_length());
      }
      return total;
    });
    probes_.add_gauge("worker.busy", shard, [this, group] {
      double total = 0.0;
      for (const std::size_t i : *group) {
        total += static_cast<double>(workers_[i]->busy_slots());
      }
      return total;
    });
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    cluster::WorkerNode* node = workers_[i].get();
    const std::uint32_t shard = sharded() ? worker_shard_[i] + 1 : 0u;
    if (per_worker) {
      // Two raw pointers keep the closure inside std::function's inline
      // buffer; the memo shares the walk with the aggregate series above.
      BacklogMemo* memo = &backlog_memos_[i];
      probes_.add_gauge("worker." + std::to_string(i) + ".backlog_s", shard,
                        [node, memo] {
                          const Tick now = node->now();
                          if (memo->at != now) *memo = {now, node->backlog_cost_s()};
                          return memo->value;
                        });
    }
    if (node->cache().config().policy != storage::EvictionPolicy::kUnbounded) {
      probes_.add_invariant("cache.capacity", shard, [node, i]() -> std::string {
        const double used = node->cache().used_mb();
        const double cap = node->cache().config().capacity_mb;
        if (used <= cap + 1e-9) return {};
        return "worker " + std::to_string(i) + " cache holds " + std::to_string(used) +
               " MB > capacity " + std::to_string(cap) + " MB";
      });
    }
  }

  // In-flight broker messages: each broker shard counts its own delivery
  // slab plus the cross-shard parcels it parked at the source, so every
  // logical message is counted exactly once and the per-shard contributions
  // sum to the cluster-wide in-flight count.
  const std::size_t broker_shards = sharded() ? shards_.size() + 1 : 1;
  for (std::size_t s = 0; s < broker_shards; ++s) {
    probes_.add_gauge("broker.in_flight", static_cast<std::uint32_t>(s), [this, s] {
      return static_cast<double>(broker_->in_flight_on(s));
    });
  }

  if (config_.shared_bandwidth) {
    auto add_flow_gauges = [this](net::FlowNetwork* flows, std::uint32_t shard) {
      probes_.add_gauge("flow.active", shard,
                        [flows] { return static_cast<double>(flows->active_flows()); });
      probes_.add_gauge("flow.allocated_mbps", shard,
                        [flows] { return flows->allocated_mbps(); });
    };
    if (sharded()) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        add_flow_gauges(shards_[s]->flows.get(), static_cast<std::uint32_t>(s + 1));
      }
    } else {
      add_flow_gauges(flow_network_.get(), 0);
    }
  }

  if (lifecycle_) {
    probes_.add_gauge("lifecycle.outstanding_leases", 0, [this] {
      return static_cast<double>(lifecycle_->outstanding_leases());
    });
  }

  // Job conservation: every submission is completed, intentionally voided by
  // the lifecycle, reassigned after a crash, or still live. All mutations of
  // these counters happen atomically within control-shard handlers, so the
  // identity holds at every tick, not just at quiescence.
  probes_.add_invariant("jobs.conservation", 0, [this]() -> std::string {
    const std::uint64_t voided = lifecycle_ ? lifecycle_->stats().attempts_voided : 0;
    const std::uint64_t accounted = completed_ + voided + reassigned_ + live_jobs_.size();
    if (submitted_ == accounted) return {};
    return "submitted=" + std::to_string(submitted_) +
           " != completed=" + std::to_string(completed_) +
           " + voided=" + std::to_string(voided) +
           " + reassigned=" + std::to_string(reassigned_) +
           " + live=" + std::to_string(live_jobs_.size());
  });

  // Broker conservation: every copy put in flight was delivered, dropped,
  // missed a retired subscription, or is still parked. Needs every shard's
  // counters at once, so sharded runs check it engine-side at the window
  // barriers (run_windows) instead of as a sampled invariant.
  if (!sharded()) {
    probes_.add_invariant("broker.conservation", 0, [this]() -> std::string {
      const msg::BrokerStats& stats = broker_->stats();
      const std::uint64_t in_flight = broker_->in_flight_total();
      if (stats.enqueued == stats.delivered + stats.dropped + stats.missed + in_flight) {
        return {};
      }
      return "enqueued=" + std::to_string(stats.enqueued) +
             " != delivered=" + std::to_string(stats.delivered) +
             " + dropped=" + std::to_string(stats.dropped) +
             " + missed=" + std::to_string(stats.missed) +
             " + in_flight=" + std::to_string(in_flight);
    });
  }
}

void Engine::check_watchdog() {
  if (!config_.telemetry.watchdog) return;
  for (obs::TelemetrySampler& sampler : samplers_) {
    if (!sampler.violation()) continue;
    const obs::InvariantViolation& v = *sampler.violation();
    std::cerr << "telemetry watchdog: invariant '" << v.probe << "' violated at t="
              << seconds_from_ticks(v.tick) << "s: " << v.message << "\n";
    sampler.dump_tail(std::cerr);
    throw std::runtime_error("telemetry watchdog: invariant '" + v.probe +
                             "' violated at tick " + std::to_string(v.tick) + ": " +
                             v.message);
  }
}

void Engine::run_sampled() {
  // Slices sim_.run(horizon) at the sampling grid. Simulator::run advances
  // the clock to its target even when no event fires there, so the slicing
  // preserves the exact event order and count — bit-identical to the
  // unsliced run. A grid tick is sampled iff a further event (<= horizon)
  // remains, which yields exactly the canonical tick set of telemetry.hpp.
  obs::TelemetrySampler& sampler = samplers_.front();
  const Tick horizon = config_.horizon;
  Tick next_sample = config_.telemetry.interval;
  while (next_sample <= horizon) {
    const Tick next_event = sim_.next_event_at();
    if (next_event == kNeverTick || next_event > horizon) break;
    sim_.run(next_sample);
    sampler.sample_confirmed(next_sample);  // single-shard ticks are canonical
    check_watchdog();
    next_sample += config_.telemetry.interval;
  }
  sim_.run(horizon);
}

void Engine::finish_telemetry() {
  const Tick interval = config_.telemetry.interval;
  // Canonical end of the series: ceil_grid of the last run progress, capped
  // at floor_grid(horizon). Barrier-applied timed faults count as progress —
  // the single-shard engine executes faults as ordinary events, so its
  // last_fired_at() covers them already.
  Tick last = sim_.last_fired_at();
  for (const auto& shard : shards_) last = std::max(last, shard->sim.last_fired_at());
  last = std::max(last, last_timed_fault_);
  Tick target = (last + interval - 1) / interval * interval;
  if (config_.horizon != kNeverTick) {
    target = std::min(target, config_.horizon / interval * interval);
  }
  for (obs::TelemetrySampler& sampler : samplers_) sampler.finalize(target);
  check_watchdog();  // finalize may have sampled fresh (quiescent) ticks
  std::vector<const obs::TelemetrySampler*> sources;
  sources.reserve(samplers_.size());
  for (const obs::TelemetrySampler& sampler : samplers_) sources.push_back(&sampler);
  telemetry_ = obs::merge_samplers(sources);
}

void Engine::run_windows() {
  // Stable: simultaneous faults apply in schedule order, as events would.
  std::stable_sort(fault_timeline_.begin(), fault_timeline_.end(),
                   [](const TimedFault& a, const TimedFault& b) { return a.at < b.at; });
  std::size_t next_fault = 0;

  std::vector<sim::Simulator*> sims;
  sims.reserve(1 + shards_.size());
  sims.push_back(&sim_);
  for (auto& shard : shards_) sims.push_back(&shard->sim);
  ThreadPool pool(sims.size());
  const Tick horizon = config_.horizon;

  // Conservative windows. Invariant at every barrier: all simulators sit at
  // the same tick (Simulator::run advances `now` to `until` even when no
  // event fires there), and every undelivered cross-shard message is parked
  // in a broker outbox with deliver_at > that tick (delay >= lookahead).
  while (true) {
    (void)broker_->drain_outboxes();
    if (lifecycle_) lifecycle_->run_barrier_probes();
    // Barrier work can park new cross-shard traffic (a broken lease
    // resubmits through the scheduler, which publishes bid requests);
    // re-drain until the outboxes settle.
    if (!broker_->outboxes_empty()) continue;

    Tick next_event = kNeverTick;
    for (sim::Simulator* sim : sims) next_event = std::min(next_event, sim->next_event_at());
    const Tick fault_at =
        next_fault < fault_timeline_.size() ? fault_timeline_[next_fault].at : kNeverTick;
    const Tick next = std::min(next_event, fault_at);
    if (next == kNeverTick || next > horizon) break;

    if (!samplers_.empty()) {
      // The run continues past `next`, so every pending sample — all taken
      // at ticks <= the previous window end < next — precedes further
      // progress and is canonical: commit it into retention, then fail fast
      // on any violation a window recorded.
      for (obs::TelemetrySampler& sampler : samplers_) sampler.confirm_through(next);
      check_watchdog();
      if (config_.telemetry.watchdog) {
        // Cross-shard broker conservation needs every shard's counters at
        // once, so it runs here — no shard thread active — instead of as a
        // sampled per-shard invariant.
        const msg::BrokerStats& stats = broker_->stats();
        const std::uint64_t in_flight = broker_->in_flight_total();
        if (stats.enqueued != stats.delivered + stats.dropped + stats.missed + in_flight) {
          throw std::runtime_error(
              "telemetry watchdog: invariant 'broker.conservation' violated at tick " +
              std::to_string(next) + ": enqueued=" + std::to_string(stats.enqueued) +
              " != delivered=" + std::to_string(stats.delivered) +
              " + dropped=" + std::to_string(stats.dropped) +
              " + missed=" + std::to_string(stats.missed) +
              " + in_flight=" + std::to_string(in_flight));
        }
      }
    }

    // Window end: anything the earliest event can cause on another shard
    // lands at >= next_event + lookahead, so every shard may safely run
    // through next_event + lookahead - 1. Faults clamp the window — they
    // must apply at a barrier, exactly at their tick.
    Tick end = horizon;
    if (next_event != kNeverTick && next_event <= kNeverTick - lookahead_) {
      end = std::min(end, next_event + lookahead_ - 1);
    }
    end = std::min(end, fault_at);

    // One shard's slice of the window, sliced at the telemetry grid: run to
    // each due tick, read that shard's gauges exactly there, continue.
    // Telemetry off => samplers_ is empty and this is just sims[i]->run(end).
    // Samples stay pending until the next barrier confirms them (a window
    // can overrun the run's final event by the lookahead; see telemetry.hpp).
    auto run_shard = [this, &sims, end](std::size_t i) {
      if (!samplers_.empty()) {
        obs::TelemetrySampler& sampler = samplers_[i];
        for (Tick due = sampler.next_due(); due <= end; due = sampler.next_due()) {
          sims[i]->run(due);
          sampler.sample(due);
        }
      }
      sims[i]->run(end);
    };

    // Waking the pool costs more than an empty run: windows where at most
    // one simulator has events due (sparse phases, drain tails) run inline.
    std::size_t busy = 0;
    for (sim::Simulator* sim : sims) busy += sim->next_event_at() <= end ? 1u : 0u;
    if (busy <= 1) {
      for (std::size_t i = 0; i < sims.size(); ++i) run_shard(i);
    } else {
      pool.parallel_for(sims.size(), run_shard);
    }

    while (next_fault < fault_timeline_.size() && fault_timeline_[next_fault].at <= end) {
      apply_timed_fault(fault_timeline_[next_fault]);
      last_timed_fault_ = std::max(last_timed_fault_, fault_timeline_[next_fault].at);
      ++next_fault;
    }
  }
}

void Engine::begin_run() {
  if (ran_) throw std::logic_error("Engine::run: already ran");
  ran_ = true;

  if (config_.probe_speeds) {
    for (auto& worker : workers_) worker->probe_speeds();
  }

  // Pull-based schedulers need the initial idle notifications (workers
  // start idle; there is no transition to fire the callback).
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    scheduler_->on_worker_idle(static_cast<WorkerIndex>(i));
  }
}

metrics::RunReport Engine::run(std::span<const workflow::Job> jobs) {
  begin_run();

  // Stream the workload in at its arrival times. Jobs are staged in
  // arrivals_ and each event captures just {this, index}: a Job is far too
  // wide for the simulator's inline action storage, an index is not.
  arrivals_.assign(jobs.begin(), jobs.end());
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    auto arrive = [this, i] { submit_job(arrivals_[i]); };
    static_assert(sim::InlineAction::fits_inline<decltype(arrive)>());
    sim_.schedule_at(arrivals_[i].created_at, arrive);
  }

  return finish_run();
}

metrics::RunReport Engine::run_stream(JobSource source) {
  begin_run();
  streaming_ = true;
  stream_source_ = std::move(source);
  if (!stream_source_) throw std::invalid_argument("Engine::run_stream: null source");
  sojourn_hist_ = &metrics_.registry().histogram("job.sojourn_s");

  if (telemetry_on()) {
    // Steady-state gauges (registered before the samplers bind in
    // finish_run). Percentiles read the cumulative log-linear histogram —
    // a pure read, so telemetry stays RNG-free and event-free.
    probes_.add_gauge("job.sojourn_p50_s", 0,
                      [this] { return sojourn_hist_->percentile(50.0); });
    probes_.add_gauge("job.sojourn_p99_s", 0,
                      [this] { return sojourn_hist_->percentile(99.0); });
    probes_.add_gauge("job.sojourn_p999_s", 0,
                      [this] { return sojourn_hist_->percentile(99.9); });
    probes_.add_gauge("master.throughput_jps", 0, [this] {
      const double elapsed = seconds_from_ticks(sim_.now());
      return elapsed > 0.0 ? static_cast<double>(completed_) / elapsed : 0.0;
    });
  }

  schedule_next_arrival();
  return finish_run();
}

void Engine::schedule_next_arrival() {
  std::optional<workflow::Job> next = stream_source_();
  if (!next.has_value()) return;
  staged_arrival_ = std::move(*next);
  // Move the job out before staging the successor: the recursive call
  // overwrites staged_arrival_.
  auto arrive = [this] {
    workflow::Job job = std::move(staged_arrival_);
    schedule_next_arrival();
    submit_job(std::move(job));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>());
  sim_.schedule_at(std::max(staged_arrival_.created_at, sim_.now()), arrive);
}

metrics::RunReport Engine::finish_run() {
  // Bind the telemetry samplers last: tests may have registered extra
  // probes through probes() between construction and run().
  if (telemetry_on()) {
    samplers_.resize(sharded() ? shards_.size() + 1 : 1);
    for (std::size_t s = 0; s < samplers_.size(); ++s) {
      samplers_[s].bind(probes_, static_cast<std::uint32_t>(s), config_.telemetry);
    }
  }

  if (!sharded()) {
    if (telemetry_on()) {
      run_sampled();
    } else {
      sim_.run(config_.horizon);
    }
  } else {
    // Traced sharded runs: give each shard its own trace buffer (appending
    // to the master tracer from shard threads would race), merged into one
    // deterministic timeline after the run.
    const bool traced = DLAJA_TRACE_ACTIVE(sim_.tracer());
    if (traced) {
      for (auto& shard : shards_) {
        shard->tracer = std::make_unique<obs::Tracer>();
        shard->tracer->set_enabled(true);
        shard->sim.set_tracer(shard->tracer.get());
      }
      broker_->prepare_shard_tracing();
    }
    run_windows();
    for (auto& shard : shards_) metrics_.absorb(shard->metrics);
    if (traced) {
      std::vector<const obs::Tracer*> sources;
      sources.reserve(shards_.size());
      for (auto& shard : shards_) sources.push_back(shard->tracer.get());
      obs::merge_tracers(*sim_.tracer(), sources);
      for (auto& shard : shards_) shard->sim.set_tracer(nullptr);
    }
  }

  if (telemetry_on()) finish_telemetry();

  // Attempts the master never acked split into intentionally voided ones
  // (the lifecycle already retried or dead-lettered them) and genuinely
  // stuck ones. Only the latter count as lost — that is the number the
  // fault-smoke CI gate pins at zero.
  std::uint64_t lost = submitted_ - completed_;
  if (lifecycle_) {
    const std::uint64_t voided = lifecycle_->stats().attempts_voided;
    lost = lost >= voided ? lost - voided : 0;
  }
  if (lost > 0) {
    DLAJA_LOG(kWarn, "engine") << sim_.log_prefix() << "run ended with " << lost
                               << " incomplete jobs (failed workers or horizon)";
  }

  // Fold the kernel and messaging counters into the registry so they land in
  // the flattened per-run stats (and the CSV's trailing columns).
  metrics::Registry& registry = metrics_.registry();
  std::uint64_t events_fired = sim_.fired();
  std::uint64_t events_scheduled = sim_.scheduled();
  std::uint64_t events_cancelled = sim_.cancelled();
  for (const auto& shard : shards_) {
    events_fired += shard->sim.fired();
    events_scheduled += shard->sim.scheduled();
    events_cancelled += shard->sim.cancelled();
  }
  registry.counter("sim.events_fired").add(static_cast<double>(events_fired));
  registry.counter("sim.events_scheduled").add(static_cast<double>(events_scheduled));
  registry.counter("sim.events_cancelled").add(static_cast<double>(events_cancelled));
  const msg::BrokerStats& broker_stats = broker_->stats();
  registry.counter("msg.published").add(static_cast<double>(broker_stats.published));
  registry.counter("msg.sent").add(static_cast<double>(broker_stats.sent));
  registry.counter("msg.delivered").add(static_cast<double>(broker_stats.delivered));
  registry.counter("msg.dropped").add(static_cast<double>(broker_stats.dropped));
  if (broker_->coalescing()) {
    // Only coalescing runs grow these columns; default runs keep the exact
    // historical CSV column set.
    registry.counter("msg.batches").add(static_cast<double>(broker_stats.batches));
    registry.counter("msg.batched").add(static_cast<double>(broker_stats.batched));
  }

  // fault.* counters exist only when the fault machinery was on, so
  // fault-free CSVs keep their exact pre-fault column set.
  if (lifecycle_) {
    registry.counter("fault.crashes").add(static_cast<double>(crashes_));
    registry.counter("fault.recoveries").add(static_cast<double>(recoveries_));
    registry.counter("fault.msg_dropped").add(static_cast<double>(broker_stats.fault_dropped));
    registry.counter("fault.msg_duplicated")
        .add(static_cast<double>(broker_stats.fault_duplicated));
    // Gated on the plan having sched_crash clauses so pre-federation fault
    // CSVs keep their exact column set.
    if (!config_.faults.sched_crashes.empty()) {
      registry.counter("fault.sched_crashes").add(static_cast<double>(sched_crashes_));
    }
  }
  if (lifecycle_) {
    const JobLifecycle::Stats& ls = lifecycle_->stats();
    registry.counter("fault.retries").add(static_cast<double>(ls.retries));
    registry.counter("fault.dead_letters").add(static_cast<double>(ls.dead_letters));
    registry.counter("fault.attempts_voided").add(static_cast<double>(ls.attempts_voided));
    registry.counter("fault.leases_broken").add(static_cast<double>(ls.leases_broken));
    registry.counter("fault.leases_rearmed").add(static_cast<double>(ls.leases_rearmed));
  }

  metrics::RunReport report = metrics::make_report(metrics_, metrics_.last_completion());
  report.scheduler = scheduler_->name();
  report.seed = config_.seed;
  report.messages_delivered = broker_->stats().delivered;
  report.jobs_retried = jobs_retried();
  report.jobs_dead_lettered = jobs_dead_lettered();
  report.jobs_lost = lost;
  return report;
}

}  // namespace dlaja::core
