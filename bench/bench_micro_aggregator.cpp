// Microbenchmarks for the server aggregation path (Sec. 6.3): sharded model
// aggregation throughput vs shard count, update (de)serialization, FedAdam
// server steps, and local-training cost per client.

#include <benchmark/benchmark.h>

#include "fl/client_runtime.hpp"
#include "fl/model_update.hpp"
#include "fl/sharded_agg.hpp"
#include "ml/dataset.hpp"
#include "ml/optimizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace papaya;

util::Bytes serialized_update(std::size_t model_size) {
  fl::ModelUpdate u;
  u.client_id = 1;
  u.num_examples = 20;
  u.delta.assign(model_size, 0.01f);
  return u.serialize();
}

void BM_UpdateSerialize(benchmark::State& state) {
  fl::ModelUpdate u;
  u.delta.assign(static_cast<std::size_t>(state.range(0)), 0.01f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.serialize());
  }
}
BENCHMARK(BM_UpdateSerialize)->Arg(1024)->Arg(65536);

void BM_UpdateDeserialize(benchmark::State& state) {
  const util::Bytes bytes =
      serialized_update(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::ModelUpdate::deserialize(bytes));
  }
}
BENCHMARK(BM_UpdateDeserialize)->Arg(1024)->Arg(65536);

/// `num_updates` updates of `model_size` floats, client update streams
/// consistent-hashed across `shards` shards, then one cross-shard reduce.
void sharded_aggregation(benchmark::State& state, std::size_t shards,
                         std::size_t model_size, std::size_t num_updates) {
  const util::Bytes update = serialized_update(model_size);
  for (auto _ : state) {
    fl::ShardedAggregator::Config cfg;
    cfg.model_size = model_size;
    cfg.num_shards = shards;
    fl::ShardedAggregator agg(cfg);
    for (std::uint64_t i = 0; i < num_updates; ++i) {
      agg.enqueue(/*stream_key=*/i, update, 1.0);
    }
    benchmark::DoNotOptimize(agg.reduce_and_reset());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(num_updates));
}

/// Sharded aggregation scaling: 512 updates of a 64k-param model over
/// 1/2/4/8 shards.  Each shard owns its own queue, worker thread and
/// intermediate, so throughput scales with the shard count instead of
/// saturating one fold thread (Sec. 6.3).
void BM_ShardedAggregation(benchmark::State& state) {
  sharded_aggregation(state, static_cast<std::size_t>(state.range(0)),
                      /*model_size=*/65536, /*num_updates=*/512);
}
BENCHMARK(BM_ShardedAggregation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Skewed update sizes over two shards: many small updates (Arg 0: 192 of
/// 256 floats), where per-update queue and reduce overhead dominates, and
/// few large ones (Arg 1: 24 of 65,536 floats), where the fold's memory
/// traffic does.
void BM_AggregationSkew(benchmark::State& state) {
  const bool large = state.range(0) != 0;
  const std::size_t model_size = large ? 65536 : 256;
  const std::size_t num_updates = large ? 24 : 192;
  sharded_aggregation(state, /*shards=*/2, model_size, num_updates);
}
BENCHMARK(BM_AggregationSkew)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The server step Aggregator::apply_step runs: a default ServerOptimizer,
/// which is FedAdam.
void BM_FedAdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::ServerOptimizer opt(n, {});
  std::vector<float> params(n, 0.0f), delta(n, 0.01f);
  for (auto _ : state) {
    opt.step(params, delta);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FedAdamStep)->Arg(65536)->Unit(benchmark::kMicrosecond);

/// One client participation's local-training cost.
void BM_LocalTrainingMlp(benchmark::State& state) {
  ml::LmConfig mcfg;
  mcfg.vocab_size = 64;
  mcfg.embed_dim = 12;
  mcfg.hidden_dim = 24;
  mcfg.context = 2;
  util::Rng rng(1);
  auto model = ml::make_mlp_lm(mcfg, rng);
  const std::vector<float> global(model->params().begin(),
                                  model->params().end());
  ml::CorpusConfig ccfg;
  ml::FederatedCorpus corpus(ccfg, 2);
  fl::ExampleStore store(corpus.client_dataset(0, 24), 1000);
  const fl::Executor executor(model->clone(), fl::TrainerConfig{});
  util::Rng train_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.train(global, 0, 1, store, train_rng));
  }
}
BENCHMARK(BM_LocalTrainingMlp)->Unit(benchmark::kMillisecond);

}  // namespace
