// The client participation protocol, message by message (Sec. 6.1): a
// virtual session carries one client through selection -> download ->
// training -> report -> chunked upload, surviving a transient disconnect
// along the way.
//
//   $ ./client_protocol

#include <cstdio>

#include "fl/aggregator.hpp"
#include "fl/chunking.hpp"
#include "fl/client_runtime.hpp"
#include "fl/session.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"

int main() {
  using namespace papaya;

  // Server side: one Aggregator owning one async task.
  fl::Aggregator aggregator("agg-0");
  fl::TaskConfig task;
  task.name = "next-word-lm";
  task.mode = fl::TrainingMode::kAsync;
  task.concurrency = 8;
  task.aggregation_goal = 1;
  // Fold uploads across 4 consistent-hashed aggregation shards (Sec. 6.3).
  task.aggregator_shards = 4;

  ml::LmConfig model_cfg;
  model_cfg.vocab_size = 32;
  model_cfg.embed_dim = 8;
  model_cfg.hidden_dim = 12;
  model_cfg.context = 2;
  util::Rng init_rng(1);
  auto model = ml::make_mlp_lm(model_cfg, init_rng);
  task.model_size = model->num_params();
  aggregator.assign_task(task, std::vector<float>(model->params().begin(),
                                                  model->params().end()),
                         {});

  fl::VirtualSessionManager::Options session_opts;
  session_opts.session_ttl_s = 300.0;
  // Sessions are stamped with the aggregation shard the client's upload
  // stream hashes to (same ring as the task's ShardedAggregator).
  session_opts.aggregator_shards = task.aggregator_shards;
  fl::VirtualSessionManager sessions(session_opts);

  // Client side: a device with local data behind the Example Store.
  ml::CorpusConfig corpus_cfg;
  corpus_cfg.vocab_size = 32;
  ml::FederatedCorpus corpus(corpus_cfg, 7);
  fl::ExampleStore store(corpus.client_dataset(0, 40), 1000);
  std::printf("device holds %zu training examples\n",
              store.num_train_examples());

  // 1. Selection: join + session establishment.
  double now = 0.0;
  const auto join = aggregator.client_join(task.name, 101, now);
  const std::uint64_t token = sessions.open(101, now);
  std::printf(
      "[t=%3.0f] selected: accepted=%d model v%llu session %016llx "
      "(upload -> shard %zu/%zu)\n",
      now, join.accepted,
      static_cast<unsigned long long>(join.model_version),
      static_cast<unsigned long long>(token), sessions.lookup(token)->shard,
      task.aggregator_shards);

  // 2. Download.
  now += 2.0;
  (void)sessions.advance(token, fl::SessionStage::kDownloading, now);
  const std::vector<float> global = aggregator.model(task.name);
  std::printf("[t=%3.0f] downloaded %zu parameters\n", now, global.size());

  // 3. Local training (SGD, one epoch).
  now += 1.0;
  (void)sessions.advance(token, fl::SessionStage::kTraining, now);
  fl::TrainerConfig trainer;
  trainer.learning_rate = 0.3f;
  fl::Executor executor(model->clone(), trainer);
  util::Rng train_rng(42);
  const auto training =
      executor.train(global, join.model_version, 101, store, train_rng);
  now += 60.0;
  // The local training loss before and after: the global model, then the
  // global model plus the delta the client is about to upload.
  auto trained = model->clone();
  for (std::size_t i = 0; i < global.size(); ++i) {
    trained->params()[i] = global[i] + training.update.delta[i];
  }
  std::printf("[t=%3.0f] trained: loss %.4f -> %.4f\n", now,
              model->loss(store.dataset().train, {}),
              trained->loss(store.dataset().train, {}));

  // ...the device loses connectivity for 2 minutes mid-session (within both
  // the session TTL and the task's 4-minute client timeout)...
  now += 120.0;
  const auto resumed = sessions.touch(token, now);
  std::printf("[t=%3.0f] resumed after disconnect: %s\n", now,
              resumed == fl::SessionOutcome::kOk ? "session intact" : "LOST");

  // 4. Report, then upload in CRC-checked chunks.
  (void)sessions.advance(token, fl::SessionStage::kReporting, now);
  (void)sessions.advance(token, fl::SessionStage::kUploading, now + 1.0);
  const util::Bytes serialized = training.update.serialize();
  const auto chunks = fl::chunk_upload(token, serialized, 256);
  fl::ChunkAssembler assembler(token);
  for (const auto& chunk : chunks) {
    (void)assembler.accept(fl::UploadChunk::deserialize(chunk.serialize()));
  }
  now += 3.0;
  const auto report =
      aggregator.client_report(task.name, *assembler.assemble(), now);
  (void)sessions.complete(token, now);
  std::printf("[t=%3.0f] uploaded %zu chunks (%zu bytes): %s, server %s\n",
              now, chunks.size(), serialized.size(),
              report.outcome == fl::ReportOutcome::kAccepted ? "accepted"
                                                             : "rejected",
              report.server_stepped ? "stepped to v1" : "buffering");
  std::printf("\nsession final state: %s (%u resume%s)\n",
              fl::to_string(sessions.lookup(token)->stage),
              sessions.lookup(token)->resumes,
              sessions.lookup(token)->resumes == 1 ? "" : "s");
  return report.outcome == fl::ReportOutcome::kAccepted ? 0 : 1;
}
