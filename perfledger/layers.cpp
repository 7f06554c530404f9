#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace ledger {

namespace {

std::atomic<std::uint64_t> g_span_log_generation{0};

/// Depth of timed scheduler calls on this thread (outermost call times).
thread_local int t_sched_depth = 0;

}  // namespace

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kPass: return "pass";
    case SpanName::kCell: return "cell";
    case SpanName::kSpec: return "core.spec";
    case SpanName::kWorkloadGen: return "workload.gen";
    case SpanName::kFleetBuild: return "cluster.fleet_build";
    case SpanName::kSchedBuild: return "sched.build";
    case SpanName::kEngineCtor: return "core.engine_ctor";
    case SpanName::kRun: return "core.run";
    case SpanName::kSubmit: return "sched.submit";
    case SpanName::kNotify: return "sched.notify";
    case SpanName::kNext: return "workload.next";
    case SpanName::kProbe: return "worker.probe";
  }
  return "?";
}

SpanLog::SpanLog() : generation_(g_span_log_generation.fetch_add(1) + 1) {}

SpanLog::Buffer& SpanLog::local() {
  // Keyed by generation, not address: a later log may reuse this one's
  // address after it is destroyed.
  thread_local std::uint64_t cached_generation = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_generation != generation_) {
    const std::scoped_lock lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    cached = buffers_.back().get();
    cached_generation = generation_;
  }
  return *cached;
}

void SpanLog::record(SpanName name, std::uint64_t id, std::uint64_t parent, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t job) {
  Buffer& buffer = local();
  buffer.spans.push_back(Span{id, parent, job, start_ns, end_ns, name, buffer.thread});
}

std::vector<Span> SpanLog::collect() const {
  const std::scoped_lock lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::size_t SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "id,parent,name,start_ns,end_ns,job,thread\n";
  const std::vector<Span> spans = collect();
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << span_name(s.name) << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.job << ',' << s.thread << '\n';
  }
  if (!out.flush()) throw std::runtime_error("short write to span file " + path);
  return spans.size();
}

ObservedScheduler::ObservedScheduler(std::unique_ptr<dlaja::sched::Scheduler> inner,
                                     LayerClock* clock, std::vector<double>* turnarounds)
    : inner_(std::move(inner)), clock_(clock), turnarounds_(turnarounds) {
  if (!inner_) throw std::invalid_argument("ObservedScheduler: null scheduler");
}

void ObservedScheduler::submit(const dlaja::workflow::Job& job) {
  if (clock_ == nullptr || t_sched_depth > 0) {
    inner_->submit(job);
    return;
  }
  ++t_sched_depth;
  const std::uint64_t id = clock_->spans.next_id();
  const std::int64_t start = now_ns();
  inner_->submit(job);
  const std::int64_t end = now_ns();
  --t_sched_depth;
  clock_->submit_ns += end - start;
  clock_->submit_samples_ns.push_back(end - start);
  clock_->spans.record(SpanName::kSubmit, id, clock_->run_span.load(std::memory_order_relaxed),
                       start, end, job.id);
}

template <typename Call>
void ObservedScheduler::timed_notify(std::uint64_t job, Call&& call) {
  if (clock_ == nullptr || t_sched_depth > 0) {
    call();
    return;
  }
  ++t_sched_depth;
  const std::uint64_t id = clock_->spans.next_id();
  const std::int64_t start = now_ns();
  call();
  const std::int64_t end = now_ns();
  --t_sched_depth;
  clock_->notify_ns.fetch_add(end - start, std::memory_order_relaxed);
  clock_->notify_calls.fetch_add(1, std::memory_order_relaxed);
  clock_->spans.record(SpanName::kNotify, id, clock_->run_span.load(std::memory_order_relaxed),
                       start, end, job);
}

void ObservedScheduler::on_completion(const dlaja::cluster::CompletionReport& report) {
  timed_notify(report.job_id, [&] { inner_->on_completion(report); });
  if (turnarounds_ != nullptr && metrics_ != nullptr) {
    const dlaja::metrics::JobRecord* job = metrics_->find_job(report.job_id);
    if (job != nullptr && job->completed() && job->arrived != dlaja::kNeverTick) {
      turnarounds_->push_back(dlaja::seconds_from_ticks(job->finished - job->arrived));
    }
  }
}

void ObservedScheduler::on_worker_idle(dlaja::cluster::WorkerIndex w) {
  timed_notify(0, [&] { inner_->on_worker_idle(w); });
}

void ObservedScheduler::on_worker_capacity(dlaja::cluster::WorkerIndex w) {
  timed_notify(0, [&] { inner_->on_worker_capacity(w); });
}

ClusterProbe::ClusterProbe(dlaja::core::Engine& engine, LayerClock& clock) : clock_(clock) {
  // Telemetry shard tags: 0 in single-shard runs; worker w of an N-shard
  // run lives on shard (w % N) + 1 (see Engine::register_probes).
  const std::size_t shards = engine.shard_count();
  const std::size_t workers = engine.worker_count();
  slots_.resize(shards == 1 ? 1 : shards + 1);
  for (std::size_t w = 0; w < workers; ++w) {
    slots_[shards == 1 ? 0 : (w % shards) + 1].workers.push_back(w);
  }
  for (std::size_t tag = 0; tag < slots_.size(); ++tag) {
    Slot* slot = &slots_[tag];
    if (slot->workers.empty()) continue;
    dlaja::core::Engine* eng = &engine;
    engine.probes().add_gauge(
        "ledger.queue_depth", static_cast<std::uint32_t>(tag), [eng, slot, log = &clock.spans,
                                                                 run = &clock.run_span] {
          const std::uint64_t id = log->next_id();
          const std::int64_t start = now_ns();
          ProbePoint point;
          std::int64_t backlog_ns = 0;
          for (const std::size_t w : slot->workers) {
            const dlaja::cluster::WorkerNode& node =
                eng->worker(static_cast<dlaja::cluster::WorkerIndex>(w));
            const auto depth = static_cast<std::uint32_t>(node.queue_length());
            point.depth_sum += depth;
            point.depth_max = std::max(point.depth_max, depth);
            const std::int64_t t0 = now_ns();
            slot->sink += node.backlog_cost_s();
            backlog_ns += now_ns() - t0;
          }
          point.workers = static_cast<std::uint32_t>(slot->workers.size());
          point.ns = backlog_ns;
          slot->points.push_back(point);
          const std::int64_t end = now_ns();
          slot->ns += end - start;
          log->record(SpanName::kProbe, id, run->load(std::memory_order_relaxed), start, end);
          return point.depth_sum;
        });
  }
}

void ClusterProbe::drain() {
  for (Slot& slot : slots_) {
    clock_.probe_points.insert(clock_.probe_points.end(), slot.points.begin(), slot.points.end());
    clock_.probe_ns += slot.ns;
    slot.points.clear();
    slot.ns = 0;
  }
}

dlaja::core::Engine::JobSource timed_source(dlaja::core::Engine::JobSource source,
                                            LayerClock& clock) {
  return [source = std::move(source), &clock]() -> std::optional<dlaja::workflow::Job> {
    const std::uint64_t id = clock.spans.next_id();
    const std::int64_t start = now_ns();
    std::optional<dlaja::workflow::Job> job = source();
    const std::int64_t end = now_ns();
    clock.next_ns += end - start;
    ++clock.next_calls;
    clock.spans.record(SpanName::kNext, id, clock.run_span.load(std::memory_order_relaxed), start,
                       end, job ? job->id : 0);
    return job;
  };
}

}  // namespace ledger
