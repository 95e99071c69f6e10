// The store id-index rule end to end: a run over a catalog above
// cache::kDenseIndexMaxIds configures every node's stores with hashed id
// indexes, and one below keeps them dense, with no option involved.

#include <gtest/gtest.h>

#include "cache/flat_store.h"
#include "sim/experiment.h"

namespace cascache {
namespace {

/// Runs one LRU cell over a small en-route workload with `objects`
/// catalog entries; returns whether every node ran hashed indexes
/// (-1 on a mix).
int HashedNodes(uint32_t objects) {
  sim::ExperimentConfig cfg;
  cfg.network.architecture = sim::Architecture::kEnRoute;
  cfg.workload.num_objects = objects;
  cfg.workload.num_requests = 4'000;
  cfg.workload.num_clients = 100;
  cfg.workload.num_servers = 50;
  schemes::SchemeSpec spec;
  spec.kind = schemes::SchemeKind::kLru;
  cfg.schemes = {spec};
  cfg.cache_fractions = {0.01};
  auto runner_or = sim::ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner_or.ok()) << runner_or.status();
  if (!runner_or.ok()) return -1;
  sim::ExperimentRunner& runner = **runner_or;
  auto result = runner.RunOne(spec, 0.01);
  EXPECT_TRUE(result.ok()) << result.status();
  const sim::CacheSet& caches = *runner.network()->caches();
  int hashed = 0;
  for (int v = 0; v < caches.num_nodes(); ++v) {
    hashed += caches.node(v)->config().sparse_ids ? 1 : 0;
  }
  if (hashed == 0) return 0;
  return hashed == caches.num_nodes() ? 1 : -1;
}

TEST(StoreIndexRuleTest, MillionObjectCatalogRunsHashed) {
  EXPECT_EQ(HashedNodes(1'000'000), 1);
}

TEST(StoreIndexRuleTest, Fig9SizedCatalogStaysDense) {
  EXPECT_EQ(HashedNodes(20'000), 0);
}

}  // namespace
}  // namespace cascache
