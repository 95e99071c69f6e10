#ifndef CASCACHE_TESTS_TESTING_SCENARIO_H_
#define CASCACHE_TESTS_TESTING_SCENARIO_H_

#include <memory>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "trace/object_catalog.h"
#include "trace/synthetic.h"

namespace cascache::testing {

/// Builds a catalog from explicit (size, server) pairs.
trace::ObjectCatalog MakeCatalog(
    const std::vector<std::pair<uint64_t, trace::ServerId>>& objects);

/// Builds a chain network: a hierarchical tree with fanout 1 and `depth`
/// cache levels, i.e. a single path leaf -> ... -> root -> (virtual link)
/// -> origin. Every client maps to the single leaf, every server sits
/// behind the root. This gives scheme tests a fully controllable delivery
/// path with link delays base_delay * growth^level.
std::unique_ptr<sim::Network> MakeChainNetwork(
    const trace::ObjectCatalog* catalog, int depth, double base_delay = 1.0,
    double growth = 1.0);

/// Builds a hierarchical tree network with the given depth and fanout
/// (fanout >= 2 gives every non-root node siblings — the sibling
/// cooperation tests use this). Link delays base_delay * growth^level.
std::unique_ptr<sim::Network> MakeTreeNetwork(
    const trace::ObjectCatalog* catalog, int depth, int fanout,
    double base_delay = 1.0, double growth = 1.0);

/// A request at `time` from client 0 for `object`.
trace::Request At(double time, trace::ObjectId object,
                  trace::ClientId client = 0);

/// The descriptor `node` keeps for `object` in its d-cache, or nullptr
/// when it has none there (unknown, or cached beside the copy).
const cache::ObjectDescriptor* DCacheDescriptor(sim::CacheNode* node,
                                                trace::ObjectId object);

/// Steps a simulator through requests without collecting metrics.
void Warm(sim::Simulator* simulator,
          const std::vector<trace::Request>& requests);

}  // namespace cascache::testing

#endif  // CASCACHE_TESTS_TESTING_SCENARIO_H_
