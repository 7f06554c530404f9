#include "cluster/worker.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace dlaja::cluster {

WorkerNode::WorkerNode(WorkerIndex index, const WorkerConfig& config,
                       sim::Simulator& simulator, net::NetworkModel& network,
                       net::NodeId node, metrics::MetricsCollector& metrics,
                       const SeedSequencer& seeds, SpeedEstimator::Mode estimation_mode)
    : index_(index),
      config_(config),
      sim_(simulator),
      net_(network),
      node_(node),
      metrics_(metrics),
      cache_(config.cache),
      net_est_(estimation_mode, config.network_mbps),
      rw_est_(estimation_mode, config.rw_mbps),
      disk_rng_(seeds.seed_for("disk/" + config.name)),
      bid_rng_(seeds.seed_for("bid/" + config.name)) {
  slots_.resize(std::max<std::uint32_t>(1, config_.slots));
  metrics_.worker(index_).name = config_.name;
}

void WorkerNode::ensure_trace_names() {
  if (trace_names_ready_) return;
  trace_names_ready_ = true;
  obs::Tracer* tracer = sim_.tracer();
  trace_transfer_ = tracer->intern("transfer");
  trace_process_ = tracer->intern("process");
}

std::size_t WorkerNode::busy_slots() const noexcept {
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot != nullptr) ++count;
  }
  return count;
}

bool WorkerNode::has_local(const workflow::Job& job) const noexcept {
  return !job.needs_resource() || cache_.contains(job.resource);
}

bool WorkerNode::has_local_or_pending(storage::ResourceId resource) const noexcept {
  return cache_.contains(resource) || pending_resources_.count(resource) > 0;
}

double WorkerNode::estimate_transfer_s(const workflow::Job& job) const {
  if (!job.needs_resource() || has_local_or_pending(job.resource)) return 0.0;
  return job.resource_size_mb / std::max(net_est_.estimate(), 1e-9);
}

double WorkerNode::estimate_processing_s(const workflow::Job& job) const {
  return job.process_mb / std::max(rw_est_.estimate(), 1e-9) +
         seconds_from_ticks(job.fixed_cost);
}

double WorkerNode::backlog_cost_s() const {
  double total = 0.0;
  // Simulate the FIFO queue in order, tracking which resources will have
  // become local by the time each queued job runs: the first queued job
  // for an absent resource pays the transfer; later ones do not. The
  // assumed-local set is a reused scratch vector with linear membership
  // scans: these sets hold a handful of distinct resources, and this query
  // sits on both the bidding hot path and the telemetry gauges, where a
  // hash set rebuilt on every call dominated the cost.
  std::vector<storage::ResourceId>& assumed_local = backlog_scratch_;
  assumed_local.clear();
  const auto assumed = [&assumed_local](storage::ResourceId r) {
    return std::find(assumed_local.begin(), assumed_local.end(), r) != assumed_local.end();
  };
  for (const auto& slot : slots_) {
    if (slot == nullptr) continue;
    const Tick remaining = slot->est_finish - sim_.now();
    if (remaining > 0) total += seconds_from_ticks(remaining);
    if (slot->job.needs_resource() && !assumed(slot->job.resource)) {
      assumed_local.push_back(slot->job.resource);
    }
  }
  // Speeds are frozen for the duration of the walk (estimators only move on
  // completions), so hoisting them out of the loop is value-identical to
  // calling estimate_transfer_s / estimate_processing_s per job.
  const double net_speed = std::max(net_est_.estimate(), 1e-9);
  const double rw_speed = std::max(rw_est_.estimate(), 1e-9);
  for (const QueuedCost& job : queue_costs_) {
    if (job.resource != 0) {
      if (!assumed(job.resource)) {
        if (!cache_.contains(job.resource)) {
          total += job.resource_size_mb / net_speed;
        }
        assumed_local.push_back(job.resource);
      }
    }
    total += job.process_mb / rw_speed + seconds_from_ticks(job.fixed_cost);
  }
  return total;
}

double WorkerNode::estimate_bid_s(const workflow::Job& job) const {
  // Listing 2, lines 2-5. With parallel slots the backlog drains S-wide,
  // so the expected wait for a lane is the total divided by the slots.
  const double lanes = static_cast<double>(std::max<std::uint32_t>(1, config_.slots));
  return backlog_cost_s() / lanes + estimate_transfer_s(job) + estimate_processing_s(job);
}

Tick WorkerNode::sample_bid_delay() {
  double ms = bid_rng_.uniform(0.5 * config_.bid_compute_ms, 1.5 * config_.bid_compute_ms);
  if (bid_rng_.bernoulli(config_.bid_straggle_probability)) {
    ms += bid_rng_.uniform(0.5 * config_.bid_straggle_ms, 1.5 * config_.bid_straggle_ms);
  }
  return ticks_from_millis(ms);
}

void WorkerNode::enqueue(const workflow::Job& job) {
  if (failed_) {
    DLAJA_LOG(kWarn, "worker") << sim_.log_prefix() << config_.name << " dropped job "
                               << job.id << " (worker failed; no fault tolerance)";
    return;
  }
  queue_.push_back(job);
  queue_costs_.push_back(
      QueuedCost{job.resource, job.resource_size_mb, job.process_mb, job.fixed_cost});
  if (job.needs_resource()) ++pending_resources_[job.resource];
  fill_slots();
}

void WorkerNode::probe_speeds(MegaBytes probe_mb) {
  // §6.4: "speeds were obtained by examining a repository of 100MB in
  // advance". One effective-bandwidth draw and one effective-rw draw.
  const MbPerSec net_measured = net_.sample_effective_bandwidth(node_);
  net_est_.observe(net_measured);
  const double rw_factor = net_.noise().sample(disk_rng_);
  rw_est_.observe(config_.rw_mbps * rw_factor);
  (void)probe_mb;  // the measured *speed* is size-independent in this model
}

std::vector<workflow::Job> WorkerNode::set_failed(bool failed) {
  std::vector<workflow::Job> lost;
  if (failed_ == failed) return lost;
  failed_ = failed;
  if (liveness_epoch_ != nullptr) ++*liveness_epoch_;
  if (failed_) {
    for (auto& slot : slots_) {
      if (slot == nullptr) continue;
      if (slot->event.valid()) sim_.cancel(slot->event);
      if (slot->flow.valid() && flows_ != nullptr) {
        flows_->cancel_flow(slot->flow);  // a partial clone is not a clone
      }
      lost.push_back(std::move(slot->job));
      slot.reset();
    }
    // The in-flight jobs and the queue die with the worker (paper §5: no
    // policies for a worker dying after winning a bid). They are handed
    // back to the caller: the engine's lifecycle resubmits them, the
    // legacy paths ignore the return value and keep the paper's semantics.
    for (workflow::Job& job : queue_) lost.push_back(std::move(job));
    queue_.clear();
    queue_costs_.clear();
    pending_resources_.clear();
  }
  return lost;
}

bool WorkerNode::has_job(workflow::JobId id) const noexcept {
  for (const auto& slot : slots_) {
    if (slot != nullptr && slot->job.id == id) return true;
  }
  for (const workflow::Job& job : queue_) {
    if (job.id == id) return true;
  }
  return false;
}

void WorkerNode::fill_slots() {
  if (failed_) return;
  for (std::size_t index = 0; index < slots_.size() && !queue_.empty(); ++index) {
    if (slots_[index] != nullptr) continue;
    workflow::Job job = queue_.front();
    queue_.pop_front();
    queue_costs_.pop_front();

    auto slot = std::make_unique<ExecSlot>();
    slot->job = std::move(job);
    // The estimate of this job's duration, frozen now, gives the remaining-
    // cost component of later backlog queries. The job runs immediately, so
    // only the *actual* cache matters (its own pending entry must not mask
    // its transfer cost).
    double est_s = estimate_processing_s(slot->job);
    if (slot->job.needs_resource() && !cache_.contains(slot->job.resource)) {
      est_s += slot->job.resource_size_mb / std::max(net_est_.estimate(), 1e-9);
    }
    slot->est_finish = sim_.now() + ticks_from_seconds(est_s);

    metrics::JobRecord& record = metrics_.job(slot->job.id);
    record.worker = index_;
    record.started = sim_.now();

    bool miss = false;
    if (slot->job.needs_resource()) {
      const bool hit = cache_.access(slot->job.resource);
      if (hit) {
        ++metrics_.worker(index_).cache_hits;
      } else {
        miss = true;
      }
    }
    slots_[index] = std::move(slot);
    if (miss) {
      begin_transfer(index);
    } else {
      begin_processing(index, /*transfer_ticks_taken=*/0, /*transferred_mb=*/0.0,
                       /*was_miss=*/false);
    }
  }
}

void WorkerNode::begin_transfer(std::size_t slot_index) {
  ExecSlot& slot = *slots_[slot_index];
  assert(slot.job.needs_resource());
  slot.transfer_started = sim_.now();
  if (flows_ != nullptr) {
    // Shared bandwidth: the flow network paces the transfer; the noise
    // factor inflates the volume (equivalent slowdown under a fixed rate).
    const double factor = net_.sample_noise_factor(node_);
    const MegaBytes effective_volume = slot.job.resource_size_mb / std::max(factor, 1e-3);
    slot.flow = flows_->start_flow(node_, effective_volume, [this, slot_index] {
      slots_[slot_index]->flow = {};
      complete_transfer(slot_index);
    });
  } else {
    const Tick transfer = net_.sample_transfer_ticks(node_, slot.job.resource_size_mb);
    auto on_transfer_done = [this, slot_index] {
      slots_[slot_index]->event = {};
      complete_transfer(slot_index);
    };
    static_assert(sim::InlineAction::fits_inline<decltype(on_transfer_done)>());
    slot.event = sim_.schedule_after(transfer, std::move(on_transfer_done));
  }
}

void WorkerNode::complete_transfer(std::size_t slot_index) {
  ExecSlot& slot = *slots_[slot_index];
  // The clone exists — and counts as local for estimates and acceptance
  // checks — from this moment on.
  cache_.admit(storage::Resource{slot.job.resource, slot.job.resource_size_mb});
  const Tick taken = sim_.now() - slot.transfer_started;
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    // A transfer span under the net component regardless of which transport
    // carried it (flow network or fixed-duration event).
    ensure_trace_names();
    sim_.tracer()->span(obs::Component::kNet, trace_transfer_, index_,
                        slot.transfer_started, sim_.now(), slot.job.id);
  }
  metrics_.registry().histogram("net.transfer_s").record(seconds_from_ticks(taken));
  metrics_.registry().histogram("net.transfer_mb").record(slot.job.resource_size_mb);
  begin_processing(slot_index, taken, slot.job.resource_size_mb, /*was_miss=*/true);
}

void WorkerNode::begin_processing(std::size_t slot_index, Tick transfer_ticks_taken,
                                  MegaBytes transferred_mb, bool was_miss) {
  ExecSlot& slot = *slots_[slot_index];
  const double rw_factor = net_.noise().sample(disk_rng_);
  const Tick processing =
      transfer_ticks(slot.job.process_mb, config_.rw_mbps * rw_factor) +
      slot.job.fixed_cost;
  const Tick duration = transfer_ticks_taken + processing;
  // The widest capture in the cluster model (48 bytes) — must stay inside
  // the simulator's inline action budget.
  auto on_processing_done =
      [this, slot_index, duration, transfer_ticks_taken, transferred_mb, was_miss] {
        slots_[slot_index]->event = {};
        finish_slot(slot_index, duration, transfer_ticks_taken, transferred_mb, was_miss);
      };
  static_assert(sim::InlineAction::fits_inline<decltype(on_processing_done)>());
  slot.event = sim_.schedule_after(processing, std::move(on_processing_done));
}

void WorkerNode::finish_slot(std::size_t slot_index, Tick duration,
                             Tick transfer_ticks_taken, MegaBytes transferred_mb,
                             bool was_miss) {
  assert(slots_[slot_index] != nullptr);
  const workflow::Job job = slots_[slot_index]->job;

  metrics::JobRecord& record = metrics_.job(job.id);
  record.finished = sim_.now();
  record.cache_miss = was_miss;
  record.downloaded_mb += transferred_mb;

  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    // The processing phase only (the transfer span was emitted separately),
    // tracked by worker index.
    ensure_trace_names();
    const Tick processing_started = sim_.now() - (duration - transfer_ticks_taken);
    sim_.tracer()->span(obs::Component::kWorker, trace_process_, index_,
                        processing_started, sim_.now(), job.id);
  }
  metrics_.registry().histogram("worker.job_s").record(seconds_from_ticks(duration));

  metrics::WorkerRecord& wrec = metrics_.worker(index_);
  ++wrec.jobs_completed;
  wrec.busy_ticks += duration;
  wrec.downloading_ticks += transfer_ticks_taken;
  if (was_miss) {
    ++wrec.cache_misses;
    wrec.downloaded_mb += transferred_mb;
  }

  // §6.4: after each job the worker re-measures its speeds and folds them
  // into the historic averages used for subsequent bids.
  if (was_miss && transfer_ticks_taken > 0) {
    net_est_.observe(transferred_mb / seconds_from_ticks(transfer_ticks_taken));
  }
  const Tick processing = duration - transfer_ticks_taken - job.fixed_cost;
  if (processing > 0 && job.process_mb > 0.0) {
    rw_est_.observe(job.process_mb / seconds_from_ticks(processing));
  }

  if (job.needs_resource()) {
    const auto it = pending_resources_.find(job.resource);
    if (it != pending_resources_.end() && --it->second == 0) pending_resources_.erase(it);
  }
  slots_[slot_index].reset();
  if (on_complete) on_complete(job, index_);
  // on_complete may have enqueued more work or failed the worker.
  if (failed_) return;
  fill_slots();
  if (idle() && on_idle) on_idle(index_);
}

}  // namespace dlaja::cluster
