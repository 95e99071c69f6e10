#include "testing/scenario.h"

#include "util/check.h"

namespace cascache::testing {

trace::ObjectCatalog MakeCatalog(
    const std::vector<std::pair<uint64_t, trace::ServerId>>& objects) {
  trace::ObjectCatalog catalog;
  for (const auto& [size, server] : objects) catalog.Add(size, server);
  return catalog;
}

std::unique_ptr<sim::Network> MakeChainNetwork(
    const trace::ObjectCatalog* catalog, int depth, double base_delay,
    double growth) {
  sim::NetworkParams params;
  params.architecture = sim::Architecture::kHierarchical;
  params.tree.depth = depth;
  params.tree.fanout = 1;
  params.tree.base_delay = base_delay;
  params.tree.growth = growth;
  auto net_or = sim::Network::Build(params, catalog);
  CASCACHE_CHECK_OK(net_or.status());
  return std::move(net_or).value();
}

std::unique_ptr<sim::Network> MakeTreeNetwork(
    const trace::ObjectCatalog* catalog, int depth, int fanout,
    double base_delay, double growth) {
  sim::NetworkParams params;
  params.architecture = sim::Architecture::kHierarchical;
  params.tree.depth = depth;
  params.tree.fanout = fanout;
  params.tree.base_delay = base_delay;
  params.tree.growth = growth;
  auto net_or = sim::Network::Build(params, catalog);
  CASCACHE_CHECK_OK(net_or.status());
  return std::move(net_or).value();
}

trace::Request At(double time, trace::ObjectId object,
                  trace::ClientId client) {
  trace::Request req;
  req.time = time;
  req.object = object;
  req.client = client;
  return req;
}

const cache::ObjectDescriptor* DCacheDescriptor(sim::CacheNode* node,
                                                trace::ObjectId object) {
  return node->DescriptorInDCache(object) ? node->FindDescriptor(object)
                                          : nullptr;
}

void Warm(sim::Simulator* simulator,
          const std::vector<trace::Request>& requests) {
  for (const trace::Request& req : requests) {
    simulator->Step(req, /*collect=*/false);
  }
}

}  // namespace cascache::testing
