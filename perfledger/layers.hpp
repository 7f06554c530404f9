#pragma once
// Instrumentation the ledger wraps around the public API from outside: an
// in-memory span log, a forwarding Scheduler decorator that times the
// scheduler layer (and can sample exact job turnarounds), and telemetry
// gauges that time the worker backlog estimate. Nothing here is compiled
// into the simulator itself.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "sched/scheduler.hpp"

namespace ledger {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, user and system), which
/// leaves out time the hypervisor steals from the VM and time threads block.
[[nodiscard]] inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Span names, one per layer boundary the harness crosses.
enum class SpanName : std::uint16_t {
  kPass,
  kCell,
  kSpec,         ///< scenario JSON -> validated ExperimentSpec
  kWorkloadGen,  ///< closed trace generation / open arrival stream set-up
  kFleetBuild,
  kSchedBuild,
  kEngineCtor,
  kRun,          ///< Engine::run / Engine::run_stream
  kSubmit,       ///< Scheduler::submit
  kNotify,       ///< Scheduler::on_completion / on_worker_idle / on_worker_capacity
  kNext,         ///< one JobSource pull
  kProbe,        ///< one timed walk over a shard's worker queues
};

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< 0 = not tied to one job
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = SpanName::kPass;
  std::uint32_t thread = 0;  ///< per-log thread index (0 = first recorder)
};

/// Spans kept in memory while the traced pass runs and written once at the
/// end. Recording is safe from any thread: each thread appends to its own
/// buffer, registered under the mutex on its first span.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// A fresh span id (ids start at 1; 0 means "no parent").
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void record(SpanName name, std::uint64_t id, std::uint64_t parent, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t job = 0);

  /// Writes collect() as CSV: id,parent,name,start_ns,end_ns,job,thread.
  /// Returns the number of spans written.
  std::size_t write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();
  /// All spans, ordered by id.
  [[nodiscard]] std::vector<Span> collect() const;

  std::uint64_t generation_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by mutex_
};

/// One timed walk over a shard's workers at a telemetry tick.
struct ProbePoint {
  double depth_sum = 0.0;     ///< sum of queue_length() over the walked workers
  std::uint32_t workers = 0;  ///< backlog_cost_s() calls in the walk
  std::uint32_t depth_max = 0;
  std::int64_t ns = 0;        ///< host time of the walk's backlog_cost_s() calls
};

/// Host time and counts the harness measured at each layer boundary of the
/// traced pass. Submit samples and the set-up/run fields are written only
/// from the control shard; notify is atomic because worker-side
/// notifications run on shard threads in sharded runs.
struct LayerClock {
  explicit LayerClock(SpanLog& log) : spans(log) {}
  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  SpanLog& spans;
  /// Parent span of every call span recorded during the current run.
  std::atomic<std::uint64_t> run_span{0};

  std::int64_t submit_ns = 0;
  std::vector<std::int64_t> submit_samples_ns;
  std::atomic<std::int64_t> notify_ns{0};
  std::atomic<std::uint64_t> notify_calls{0};

  std::int64_t next_ns = 0;
  std::uint64_t next_calls = 0;

  std::int64_t spec_ns = 0;
  std::int64_t gen_ns = 0;
  std::int64_t fleet_ns = 0;
  std::int64_t sched_build_ns = 0;
  std::int64_t ctor_ns = 0;
  std::int64_t run_ns = 0;

  std::vector<ProbePoint> probe_points;
  std::int64_t probe_ns = 0;  ///< whole gauge time (walk + queue reads)
};

/// Forwards every Scheduler call to `inner`. With a clock it times submit
/// and the three notifications; nested calls on one thread are timed once,
/// at the outermost level, so no host time is counted twice. With a
/// turnaround sink it records each completed job's arrival-to-finish time
/// when the master learns of the completion, which is before a streaming run
/// retires the job's record, so the sample is exact.
class ObservedScheduler final : public dlaja::sched::Scheduler {
 public:
  ObservedScheduler(std::unique_ptr<dlaja::sched::Scheduler> inner, LayerClock* clock,
                    std::vector<double>* turnarounds);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(const dlaja::sched::SchedulerContext& ctx) override {
    metrics_ = ctx.metrics;
    inner_->attach(ctx);
  }
  void submit(const dlaja::workflow::Job& job) override;
  void on_completion(const dlaja::cluster::CompletionReport& report) override;
  void on_worker_idle(dlaja::cluster::WorkerIndex w) override;
  void on_worker_capacity(dlaja::cluster::WorkerIndex w) override;
  void on_worker_recovered(dlaja::cluster::WorkerIndex w) override {
    inner_->on_worker_recovered(w);
  }
  void on_assignment_void(dlaja::workflow::JobId id, dlaja::cluster::WorkerIndex w) override {
    inner_->on_assignment_void(id, w);
  }
  void on_scheduler_crash(std::uint32_t instance) override { inner_->on_scheduler_crash(instance); }
  void on_scheduler_recovered(std::uint32_t instance) override {
    inner_->on_scheduler_recovered(instance);
  }
  [[nodiscard]] std::size_t pending_jobs() const override { return inner_->pending_jobs(); }
  [[nodiscard]] bool supports_sharding() const override { return inner_->supports_sharding(); }

  [[nodiscard]] const dlaja::sched::Scheduler& inner() const noexcept { return *inner_; }

 private:
  template <typename Call>
  void timed_notify(std::uint64_t job, Call&& call);

  std::unique_ptr<dlaja::sched::Scheduler> inner_;
  LayerClock* clock_;
  std::vector<double>* turnarounds_;
  const dlaja::metrics::MetricsCollector* metrics_ = nullptr;
};

/// Collects the probe points of one engine run. Registers one gauge per
/// telemetry shard tag; each walks only its shard's workers (so it runs on
/// the thread that owns them) and writes only its own slot.
class ClusterProbe {
 public:
  /// Must be called between Engine construction and run(), with telemetry on.
  ClusterProbe(dlaja::core::Engine& engine, LayerClock& clock);
  ClusterProbe(const ClusterProbe&) = delete;
  ClusterProbe& operator=(const ClusterProbe&) = delete;

  /// Moves this run's points into the clock (call after the run).
  void drain();

 private:
  struct Slot {
    std::vector<std::size_t> workers;
    std::vector<ProbePoint> points;
    std::int64_t ns = 0;
    double sink = 0.0;
  };
  LayerClock& clock_;
  std::vector<Slot> slots_;  ///< sized once; gauges hold pointers into it
};

/// Wraps a JobSource so each pull is timed and recorded as a span.
[[nodiscard]] dlaja::core::Engine::JobSource timed_source(dlaja::core::Engine::JobSource source,
                                                          LayerClock& clock);

}  // namespace ledger
