#pragma once
// Contest fan-out policy for the bidding scheduler.
//
// `full` is the paper's protocol: every contest is broadcast to every
// subscribed worker and the quorum is "all active workers have bid" —
// bit-identical to the pre-policy implementation and the default.
//
// `probe:k` is the Dodoor-style scale path (arXiv:2510.12889): each contest
// solicits a seeded random k-subset of the currently alive workers and
// closes once those k have bid (or the window elapses). Contest cost drops
// from O(workers) messages to O(k), which is what lets a single master run
// 1,000+ worker fleets. This is an extension beyond the source paper.
//
// `cached:k` goes one step further (Dodoor's load cache): the master keeps
// a per-worker load/locality cache refreshed asynchronously and places each
// job directly on the best of k seeded-random cached candidates — O(1)
// messages per job, no solicit round-trip. The placed worker may *decline*
// a stale placement (late binding), which triggers exactly one fallback
// `probe:k` re-contest, so correctness never depends on cache freshness.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/protocol.hpp"
#include "util/rng.hpp"

namespace dlaja::sched {

struct FanoutPolicy {
  enum class Mode : std::uint8_t {
    kFull,    ///< broadcast to all subscribers (paper-faithful, default)
    kProbe,   ///< solicit a random k-subset of alive workers
    kCached,  ///< place directly on cached load estimates, probe on decline
  };

  Mode mode = Mode::kFull;
  /// Candidate-set size: solicited workers per contest (probe) or cached
  /// candidates per placement and fallback probes per decline (cached).
  std::uint32_t probe_k = 4;

  [[nodiscard]] bool probing() const noexcept { return mode == Mode::kProbe; }
  [[nodiscard]] bool cached() const noexcept { return mode == Mode::kCached; }

  /// True when contests solicit a k-subset instead of broadcasting: probe
  /// mode always, cached mode for its decline-fallback re-contests.
  [[nodiscard]] bool contest_probes() const noexcept { return mode != Mode::kFull; }

  /// Parses "full", "probe:K" or "cached:K" (K >= 1). Throws
  /// std::invalid_argument listing the valid modes.
  [[nodiscard]] static FanoutPolicy parse(const std::string& text);

  /// "full", "probe:K" or "cached:K" — the inverse of parse().
  [[nodiscard]] std::string describe() const;

  bool operator==(const FanoutPolicy&) const = default;
};

/// Draws a seeded uniform subset of min(k, pool.size()) entries of `pool`
/// into `out`, in draw order. The draws and the result are exactly those of
/// a partial Fisher-Yates over a fresh copy of `pool` (draw i is
/// rng.uniform_int(0, n - 1 - i), and slot i swaps with slot i + draw), but
/// the cost is O(k), not O(n): the swaps happen in `pool` itself, their
/// partner slots are journaled in `swaps`, and they are undone in reverse
/// before returning, so `pool` comes back unchanged.
void sample_subset(std::vector<cluster::WorkerIndex>& pool, std::size_t k, RandomStream& rng,
                   std::vector<std::size_t>& swaps, std::vector<cluster::WorkerIndex>& out);

}  // namespace dlaja::sched
