// Unit tests for cluster configuration presets, speed estimation and the
// worker node's estimation/execution behaviour.

#include <gtest/gtest.h>

#include "cluster/config.hpp"
#include "cluster/speed_estimator.hpp"
#include "cluster/worker.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace dlaja::cluster {
namespace {

// --- presets -------------------------------------------------------------

TEST(FleetPresets, NamesRoundTrip) {
  for (const FleetPreset p : all_fleet_presets()) {
    EXPECT_EQ(fleet_preset_from_name(fleet_preset_name(p)), p);
  }
  EXPECT_THROW((void)fleet_preset_from_name("nope"), std::invalid_argument);
}

TEST(FleetPresets, FiveWorkersByDefault) {
  for (const FleetPreset p : all_fleet_presets()) {
    EXPECT_EQ(make_fleet(p).size(), 5u) << fleet_preset_name(p);
  }
}

TEST(FleetPresets, AllEqualIsNearlyUniform) {
  const auto fleet = make_fleet(FleetPreset::kAllEqual);
  double lo = fleet[0].network_mbps, hi = fleet[0].network_mbps;
  for (const auto& w : fleet) {
    lo = std::min(lo, w.network_mbps);
    hi = std::max(hi, w.network_mbps);
  }
  EXPECT_LT(hi / lo, 1.25);  // "the same, or nearly the same"
}

TEST(FleetPresets, OneFastHasOneClearOutlier) {
  const auto fleet = make_fleet(FleetPreset::kOneFast);
  EXPECT_GT(fleet[0].network_mbps, 2.0 * fleet[1].network_mbps);
  EXPECT_GT(fleet[0].rw_mbps, 2.0 * fleet[1].rw_mbps);
}

TEST(FleetPresets, OneSlowHasOneClearLaggard) {
  const auto fleet = make_fleet(FleetPreset::kOneSlow);
  EXPECT_LT(fleet[0].network_mbps, 0.5 * fleet[1].network_mbps);
}

TEST(FleetPresets, FastSlowHasBothExtremes) {
  const auto fleet = make_fleet(FleetPreset::kFastSlow);
  EXPECT_GT(fleet[0].network_mbps, fleet[2].network_mbps * 2.0);
  EXPECT_LT(fleet[1].network_mbps, fleet[2].network_mbps * 0.5);
}

TEST(FleetPresets, CustomWorkerCount) {
  EXPECT_EQ(make_fleet(FleetPreset::kAllEqual, 9).size(), 9u);
  EXPECT_THROW(make_fleet(FleetPreset::kAllEqual, 0), std::invalid_argument);
  // fast-slow degenerates gracefully with a single worker.
  EXPECT_EQ(make_fleet(FleetPreset::kFastSlow, 1).size(), 1u);
}

// --- speed estimator -------------------------------------------------------

TEST(SpeedEstimator, NominalModeIgnoresObservations) {
  SpeedEstimator est(SpeedEstimator::Mode::kNominal, 40.0);
  est.observe(100.0);
  est.observe(200.0);
  EXPECT_EQ(est.estimate(), 40.0);
  EXPECT_EQ(est.observations(), 2u);
}

TEST(SpeedEstimator, HistoricModeAverages) {
  SpeedEstimator est(SpeedEstimator::Mode::kHistoric, 40.0);
  EXPECT_EQ(est.estimate(), 40.0);  // falls back to nominal with no history
  est.observe(30.0);
  EXPECT_EQ(est.estimate(), 30.0);
  est.observe(50.0);
  EXPECT_EQ(est.estimate(), 40.0);
  est.observe(70.0);
  EXPECT_DOUBLE_EQ(est.estimate(), 50.0);
}

TEST(SpeedEstimator, IgnoresNonPositiveMeasurements) {
  SpeedEstimator est(SpeedEstimator::Mode::kHistoric, 40.0);
  est.observe(0.0);
  est.observe(-5.0);
  EXPECT_EQ(est.observations(), 0u);
  EXPECT_EQ(est.estimate(), 40.0);
}

// --- worker node -----------------------------------------------------------

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : seeds_(42), network_(seeds_, net::NoiseConfig::none()), metrics_(1) {
    config_.name = "w0";
    config_.network_mbps = 50.0;  // 100 MB -> 2 s
    config_.rw_mbps = 100.0;      // 100 MB -> 1 s
    net::LinkConfig link;
    link.bandwidth_mbps = config_.network_mbps;
    node_ = network_.register_node(config_.name, link);
    worker_ = std::make_unique<WorkerNode>(0, config_, sim_, network_, node_, metrics_,
                                           seeds_);
  }

  [[nodiscard]] workflow::Job make_job(workflow::JobId id, storage::ResourceId res,
                                       MegaBytes size) const {
    workflow::Job job;
    job.id = id;
    job.resource = res;
    job.resource_size_mb = size;
    job.process_mb = size;
    return job;
  }

  SeedSequencer seeds_;
  sim::Simulator sim_;
  net::NetworkModel network_;
  metrics::MetricsCollector metrics_;
  WorkerConfig config_;
  net::NodeId node_{};
  std::unique_ptr<WorkerNode> worker_;
};

TEST_F(WorkerTest, EstimatesFollowThePaperFormulas) {
  const auto job = make_job(1, 7, 100.0);
  // Not cached: transfer = 100/50 = 2 s; processing = 100/100 = 1 s.
  EXPECT_DOUBLE_EQ(worker_->estimate_transfer_s(job), 2.0);
  EXPECT_DOUBLE_EQ(worker_->estimate_processing_s(job), 1.0);
  EXPECT_DOUBLE_EQ(worker_->estimate_bid_s(job), 3.0);  // empty backlog

  worker_->cache().admit({7, 100.0});
  EXPECT_DOUBLE_EQ(worker_->estimate_transfer_s(job), 0.0);  // local data is free
  EXPECT_DOUBLE_EQ(worker_->estimate_bid_s(job), 1.0);
}

TEST_F(WorkerTest, FixedCostEntersProcessingEstimate) {
  auto job = make_job(1, 7, 100.0);
  job.fixed_cost = ticks_from_seconds(0.5);
  EXPECT_DOUBLE_EQ(worker_->estimate_processing_s(job), 1.5);
}

TEST_F(WorkerTest, ExecutionDownloadsOnMissAndRecordsMetrics) {
  worker_->enqueue(make_job(1, 7, 100.0));
  sim_.run();
  const metrics::JobRecord* record = metrics_.find_job(1);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->completed());
  EXPECT_TRUE(record->cache_miss);
  EXPECT_EQ(record->downloaded_mb, 100.0);
  EXPECT_EQ(record->worker, 0u);
  // Noiseless: 2 s transfer + 1 s processing.
  EXPECT_EQ(record->finished - record->started, ticks_from_seconds(3.0));
  EXPECT_TRUE(worker_->cache().contains(7));

  const metrics::WorkerRecord& wrec = metrics_.worker(0);
  EXPECT_EQ(wrec.jobs_completed, 1u);
  EXPECT_EQ(wrec.cache_misses, 1u);
  EXPECT_EQ(wrec.downloaded_mb, 100.0);
  EXPECT_EQ(wrec.busy_ticks, ticks_from_seconds(3.0));
  EXPECT_EQ(wrec.downloading_ticks, ticks_from_seconds(2.0));
}

TEST_F(WorkerTest, SecondJobOnSameResourceIsAHit) {
  worker_->enqueue(make_job(1, 7, 100.0));
  worker_->enqueue(make_job(2, 7, 100.0));
  sim_.run();
  EXPECT_FALSE(metrics_.find_job(2)->cache_miss);
  EXPECT_EQ(metrics_.find_job(2)->downloaded_mb, 0.0);
  EXPECT_EQ(metrics_.worker(0).cache_hits, 1u);
  // Hit job only pays processing: 1 s.
  EXPECT_EQ(metrics_.find_job(2)->finished - metrics_.find_job(2)->started,
            ticks_from_seconds(1.0));
}

TEST_F(WorkerTest, FifoOrderIsRespected) {
  std::vector<workflow::JobId> done;
  worker_->on_complete = [&](const workflow::Job& job, WorkerIndex) {
    done.push_back(job.id);
  };
  worker_->enqueue(make_job(3, 1, 10.0));
  worker_->enqueue(make_job(1, 2, 10.0));
  worker_->enqueue(make_job(2, 3, 10.0));
  sim_.run();
  EXPECT_EQ(done, (std::vector<workflow::JobId>{3, 1, 2}));
}

TEST_F(WorkerTest, BacklogCostTracksQueueAndInFlight) {
  EXPECT_DOUBLE_EQ(worker_->backlog_cost_s(), 0.0);
  worker_->enqueue(make_job(1, 7, 100.0));  // starts immediately: 3 s estimate
  worker_->enqueue(make_job(2, 8, 100.0));  // queued: 3 s estimate
  EXPECT_DOUBLE_EQ(worker_->backlog_cost_s(), 6.0);
  // After 1 s of simulated time the in-flight remainder shrinks to 2 s.
  sim_.run(ticks_from_seconds(1.0));
  EXPECT_DOUBLE_EQ(worker_->backlog_cost_s(), 5.0);
  sim_.run();
  EXPECT_DOUBLE_EQ(worker_->backlog_cost_s(), 0.0);
}

TEST_F(WorkerTest, OnIdleFiresWhenQueueDrains) {
  int idle_calls = 0;
  worker_->on_idle = [&](WorkerIndex) { ++idle_calls; };
  worker_->enqueue(make_job(1, 7, 10.0));
  worker_->enqueue(make_job(2, 8, 10.0));
  sim_.run();
  EXPECT_EQ(idle_calls, 1);  // only on the final transition to idle
  EXPECT_TRUE(worker_->idle());
}

TEST_F(WorkerTest, JobWithoutResourceSkipsTransfer) {
  workflow::Job job;
  job.id = 1;
  job.process_mb = 100.0;
  worker_->enqueue(job);
  sim_.run();
  EXPECT_FALSE(metrics_.find_job(1)->cache_miss);
  EXPECT_EQ(metrics_.find_job(1)->downloaded_mb, 0.0);
  EXPECT_EQ(metrics_.worker(0).downloading_ticks, 0);
}

TEST_F(WorkerTest, FailedWorkerDropsAssignments) {
  (void)worker_->set_failed(true);
  worker_->enqueue(make_job(1, 7, 10.0));
  sim_.run();
  EXPECT_EQ(metrics_.worker(0).jobs_completed, 0u);
  EXPECT_TRUE(worker_->failed());
}

TEST_F(WorkerTest, LivenessEpochMovesOnlyWhenTheFlagFlips) {
  std::uint64_t epoch = 0;
  worker_->set_liveness_epoch(&epoch);
  (void)worker_->set_failed(false);  // already alive: no flip
  EXPECT_EQ(epoch, 0u);
  (void)worker_->set_failed(true);
  EXPECT_EQ(epoch, 1u);
  (void)worker_->set_failed(true);  // overlapping crash: still one flip
  EXPECT_EQ(epoch, 1u);
  (void)worker_->set_failed(false);
  EXPECT_EQ(epoch, 2u);
}

TEST_F(WorkerTest, FailureMidJobLosesIt) {
  worker_->enqueue(make_job(1, 7, 100.0));  // takes 3 s
  sim_.schedule_at(ticks_from_seconds(1.0), [&] {
    const auto lost = worker_->set_failed(true);
    EXPECT_EQ(lost.size(), 1u);  // the in-flight job is reported lost
  });
  sim_.run();
  EXPECT_FALSE(metrics_.find_job(1)->completed());
  EXPECT_EQ(metrics_.worker(0).jobs_completed, 0u);
}

TEST_F(WorkerTest, HistoricEstimatorLearnsFromExecution) {
  // Rebuild the worker in historic mode.
  worker_ = std::make_unique<WorkerNode>(0, config_, sim_, network_, node_, metrics_,
                                         seeds_, SpeedEstimator::Mode::kHistoric);
  worker_->enqueue(make_job(1, 7, 100.0));
  sim_.run();
  // Noiseless execution: measured speeds equal nominal.
  EXPECT_EQ(worker_->network_estimator().observations(), 1u);
  EXPECT_NEAR(worker_->network_estimator().estimate(), 50.0, 0.1);
  EXPECT_EQ(worker_->rw_estimator().observations(), 1u);
  EXPECT_NEAR(worker_->rw_estimator().estimate(), 100.0, 0.1);
}

TEST_F(WorkerTest, ProbeSeedsEstimators) {
  worker_ = std::make_unique<WorkerNode>(0, config_, sim_, network_, node_, metrics_,
                                         seeds_, SpeedEstimator::Mode::kHistoric);
  worker_->probe_speeds();
  EXPECT_EQ(worker_->network_estimator().observations(), 1u);
  EXPECT_EQ(worker_->rw_estimator().observations(), 1u);
}

TEST_F(WorkerTest, BidDelaySamplesWithinConfiguredBand) {
  config_.bid_straggle_probability = 0.0;
  worker_ = std::make_unique<WorkerNode>(0, config_, sim_, network_, node_, metrics_,
                                         seeds_);
  for (int i = 0; i < 1000; ++i) {
    const Tick d = worker_->sample_bid_delay();
    EXPECT_GE(d, ticks_from_millis(0.5 * config_.bid_compute_ms));
    EXPECT_LE(d, ticks_from_millis(1.5 * config_.bid_compute_ms));
  }
}

TEST_F(WorkerTest, StragglesExceedTheWindowSometimes) {
  config_.bid_straggle_probability = 1.0;
  config_.bid_straggle_ms = 1500.0;
  worker_ = std::make_unique<WorkerNode>(0, config_, sim_, network_, node_, metrics_,
                                         seeds_);
  int over_window = 0;
  for (int i = 0; i < 100; ++i) {
    if (worker_->sample_bid_delay() > ticks_from_seconds(1.0)) ++over_window;
  }
  EXPECT_GT(over_window, 0);
}

}  // namespace
}  // namespace dlaja::cluster
