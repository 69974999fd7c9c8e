#include "checks.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "graph/dijkstra.h"

namespace dbench {
namespace {

using State = fm::OrderOutcome::State;

// Relative tolerance for sums whose terms are added in a different order.
constexpr double kRoundingTolerance = 1e-9;

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <=
         kRoundingTolerance * std::max(1.0, std::max(std::fabs(a),
                                                     std::fabs(b)));
}

}  // namespace

std::string CheckConservation(const std::vector<fm::Order>& orders,
                              const fm::SimulationResult& result,
                              std::size_t distinct_placed) {
  std::uint64_t delivered = 0, rejected = 0, pending = 0;
  for (const fm::OrderOutcome& o : result.outcomes) {
    delivered += o.state == State::kDelivered;
    rejected += o.state == State::kRejected;
    pending += o.state == State::kPendingAtEnd;
  }
  const fm::Metrics& m = result.metrics;
  const std::uint64_t total = delivered + rejected + pending;
  if (delivered != m.orders_delivered || rejected != m.orders_rejected ||
      pending != m.orders_pending_at_end) {
    return "conservation: outcomes (" + std::to_string(delivered) + "/" +
           std::to_string(rejected) + "/" + std::to_string(pending) +
           " delivered/rejected/pending) disagree with the metrics (" +
           std::to_string(m.orders_delivered) + "/" +
           std::to_string(m.orders_rejected) + "/" +
           std::to_string(m.orders_pending_at_end) + ")";
  }
  if (total != orders.size() || total != distinct_placed) {
    return "conservation: delivered + rejected + pending = " +
           std::to_string(total) + ", generated orders = " +
           std::to_string(orders.size()) + ", distinct OrderPlaced ids = " +
           std::to_string(distinct_placed);
  }
  return "";
}

std::string CheckReadiness(const std::vector<fm::Order>& orders,
                           const fm::SimulationResult& result) {
  for (const fm::OrderOutcome& o : result.outcomes) {
    if (o.state != State::kDelivered) continue;
    const fm::Order& order = orders[o.id];
    if (o.delivered_at - order.placed_at < order.prep_time - 1e-9) {
      return "readiness: order " + std::to_string(o.id) +
             " delivered " + std::to_string(o.delivered_at - order.placed_at) +
             " s after placement, before its prep time " +
             std::to_string(order.prep_time) + " s";
    }
  }
  return "";
}

std::string CheckTotalXdt(const std::vector<fm::Order>& orders,
                          const fm::SimulationResult& result,
                          const fm::DistanceOracle& oracle) {
  double total = 0.0;
  for (const fm::OrderOutcome& o : result.outcomes) {
    if (o.state != State::kDelivered) continue;
    const fm::Order& order = orders[o.id];
    const double shortest =
        order.prep_time +
        oracle.Duration(order.restaurant, order.customer, order.placed_at);
    total += (o.delivered_at - order.placed_at) - shortest;
  }
  if (!NearlyEqual(total, result.metrics.total_xdt_seconds)) {
    return "xdt: recomputed total " + std::to_string(total) +
           " s != Metrics::total_xdt_seconds " +
           std::to_string(result.metrics.total_xdt_seconds) + " s";
  }
  return "";
}

std::string CheckOracleSample(const fm::DistanceOracle& oracle,
                              std::uint64_t seed, fm::Seconds start,
                              fm::Seconds end, int samples,
                              double perturb_s) {
  const fm::RoadNetwork& net = oracle.network();
  fm::Rng rng(seed ^ 0x0dd5a3b1e5ull);
  for (int i = 0; i < samples; ++i) {
    const auto u = static_cast<fm::NodeId>(rng.UniformInt(net.num_nodes()));
    const auto v = static_cast<fm::NodeId>(rng.UniformInt(net.num_nodes()));
    const fm::Seconds t = rng.UniformRange(start, end);
    const double got = oracle.Duration(u, v, t) + perturb_s;
    const double want = fm::PointToPointTime(net, u, v, fm::HourSlot(t));
    if (!(got == want || NearlyEqual(got, want))) {
      return "oracle: Duration(" + std::to_string(u) + ", " +
             std::to_string(v) + ", " + std::to_string(t) + ") = " +
             std::to_string(got) + " but Dijkstra gives " +
             std::to_string(want);
    }
  }
  return "";
}

}  // namespace dbench
