#include "sched/fanout.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dlaja::sched {

namespace {

constexpr const char* kValidModes = "'full', 'probe:K' or 'cached:K' (K >= 1)";

std::uint32_t parse_k(const std::string& text, const std::string& count, const char* mode) {
  std::size_t used = 0;
  unsigned long k = 0;
  try {
    k = std::stoul(count, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != count.size() || k == 0) {
    throw std::invalid_argument("bad fan-out '" + text + "': " + mode +
                                ":K needs K >= 1 (valid modes: " + kValidModes + ")");
  }
  return static_cast<std::uint32_t>(k);
}

}  // namespace

FanoutPolicy FanoutPolicy::parse(const std::string& text) {
  FanoutPolicy policy;
  if (text == "full") return policy;
  if (text.rfind("probe:", 0) == 0) {
    policy.mode = Mode::kProbe;
    policy.probe_k = parse_k(text, text.substr(6), "probe");
    return policy;
  }
  if (text.rfind("cached:", 0) == 0) {
    policy.mode = Mode::kCached;
    policy.probe_k = parse_k(text, text.substr(7), "cached");
    return policy;
  }
  throw std::invalid_argument("bad fan-out '" + text +
                              "' (valid modes: " + std::string(kValidModes) + ")");
}

std::string FanoutPolicy::describe() const {
  switch (mode) {
    case Mode::kProbe: return "probe:" + std::to_string(probe_k);
    case Mode::kCached: return "cached:" + std::to_string(probe_k);
    case Mode::kFull: break;
  }
  return "full";
}

void sample_subset(std::vector<cluster::WorkerIndex>& pool, std::size_t k, RandomStream& rng,
                   std::vector<std::size_t>& swaps, std::vector<cluster::WorkerIndex>& out) {
  const std::size_t n = pool.size();
  k = std::min(k, n);
  swaps.clear();
  out.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n - 1 - i)));
    std::swap(pool[i], pool[j]);
    swaps.push_back(j);
    out.push_back(pool[i]);
  }
  for (std::size_t i = k; i-- > 0;) std::swap(pool[i], pool[swaps[i]]);
}

}  // namespace dlaja::sched
