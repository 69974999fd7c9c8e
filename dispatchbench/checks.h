// Output checks run after every simulated day. Each returns an empty string
// when the check holds and a description of the first violation otherwise;
// a violation fails the run. None compares against recorded output: each
// recomputes an invariant from the inputs and the library's public API.
#ifndef DISPATCHBENCH_CHECKS_H_
#define DISPATCHBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/distance_oracle.h"
#include "model/order.h"
#include "sim/simulator.h"

namespace dbench {

// delivered + rejected + pending (per outcome and per Metrics) equals the
// number of generated orders and the number of distinct OrderPlaced ids
// the probe saw.
std::string CheckConservation(const std::vector<fm::Order>& orders,
                              const fm::SimulationResult& result,
                              std::size_t distinct_placed);

// No delivered order was dropped off before placement + prep time.
std::string CheckReadiness(const std::vector<fm::Order>& orders,
                           const fm::SimulationResult& result);

// Σ over delivered orders of (drop-off − placement) − (prep +
// oracle.Duration(restaurant, customer, placement)) equals
// Metrics::total_xdt_seconds up to floating-point rounding.
std::string CheckTotalXdt(const std::vector<fm::Order>& orders,
                          const fm::SimulationResult& result,
                          const fm::DistanceOracle& oracle);

// `samples` seeded (u, v, t) queries with t in [start, end): the oracle's
// Duration matches plain Dijkstra (PointToPointTime) on the same hour slot.
// `perturb_s` is added to the oracle's answers (0 except in the self-test).
std::string CheckOracleSample(const fm::DistanceOracle& oracle,
                              std::uint64_t seed, fm::Seconds start,
                              fm::Seconds end, int samples,
                              double perturb_s = 0.0);

}  // namespace dbench

#endif  // DISPATCHBENCH_CHECKS_H_
