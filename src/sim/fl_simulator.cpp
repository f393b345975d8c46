#include "sim/fl_simulator.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <cassert>
#include <stdexcept>

namespace papaya::sim {

namespace {

/// Ask the kernel to back a large flat array with transparent huge pages
/// (the system default is madvise-only).  A 10M-device record array is
/// 160 MB accessed at random, one device per event — with 4 KiB pages
/// that is a TLB miss per event; with 2 MiB pages the whole array fits a
/// modern STLB.  Advisory and best-effort: failure is ignored.
void advise_huge_pages(void* data, std::size_t bytes) {
#if defined(__linux__)
  constexpr std::uintptr_t kPage = 4096;
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

std::unique_ptr<ml::LanguageModel> build_model(ModelKind kind,
                                               const ml::LmConfig& cfg,
                                               util::Rng& rng) {
  switch (kind) {
    case ModelKind::kMlp:
      return ml::make_mlp_lm(cfg, rng);
    case ModelKind::kLstm:
      return ml::make_lstm_lm(cfg, rng);
  }
  throw std::logic_error("unknown model kind");
}

/// Closed-loop scheduling reacts to sampled quantities, which is only legal
/// when draws are schedule-independent: force per-entity streams and the
/// pipelined runtime (whose stage timings are the arrival process) before
/// anything reads the config.
SimulationConfig normalize_config(SimulationConfig cfg) {
  if (cfg.task.closed_loop_clients) {
    cfg.task.pipelined_clients = true;
    cfg.rng_streams = RngStreamMode::kPerEntity;
  }
  return cfg;
}

}  // namespace

FlSimulator::FlSimulator(SimulationConfig config)
    : config_(normalize_config(std::move(config))),
      streams_(config_.seed, config_.rng_streams,
               /*dense_entities=*/config_.population.num_devices),
      queue_(&FlSimulator::dispatch_event, this, config_.event_queue) {
  // The POD event record addresses devices with 32 bits; a population past
  // that bound would silently alias entities.
  if (config_.population.num_devices >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "FlSimulator: population exceeds the 32-bit event entity space");
  }
  corpus_ = std::make_unique<ml::FederatedCorpus>(config_.corpus, config_.seed);
  population_ = std::make_unique<DevicePopulation>(config_.population);
  network_ = std::make_unique<NetworkModel>(config_.network);

  // Build the initial global model deterministically from the seed.
  // sim-streams-exempt: runs once before the event loop; draw order is fixed.
  util::Rng init_rng(config_.seed ^ 0x0de1ULL);
  auto initial_model = build_model(config_.model_kind, config_.model, init_rng);
  const std::size_t model_size = initial_model->num_params();
  config_.task.model_size = model_size;
  model_bytes_ = model_size * sizeof(float);

  model_store_ = std::make_unique<fl::ModelStore>(config_.model_store);
  executor_ = std::make_unique<fl::Executor>(initial_model->clone(),
                                             config_.trainer);
  eval_model_ = initial_model->clone();
  eval_set_ = corpus_->global_test_set(config_.eval_set_size);

  // Server components.
  coordinator_ = std::make_unique<fl::Coordinator>(config_.seed);
  // Sharding is a task property: normalize it once here so the Coordinator,
  // the owning Aggregator's pipelines, and any failover replacement all see
  // the same shard count.  The fold strategy is normalized the same way (an
  // out-of-enum value falls back to adaptive); with the simulator's
  // single-threaded pools every strategy folds each shard's queue in
  // arrival order, so trajectories stay bit-for-bit reproducible under any
  // strategy — forced or adaptive, switches included (the strategy
  // equivalence suite in tests/sim_test.cpp pins this).
  if (config_.task.aggregator_shards == 0) config_.task.aggregator_shards = 1;
  if (!fl::valid_agg_strategy(config_.task.aggregation_strategy)) {
    config_.task.aggregation_strategy = fl::AggStrategy::kAuto;
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.num_aggregators);
       ++i) {
    // Single-threaded worker pools per aggregation shard: stream-to-shard
    // placement is hash-deterministic and each shard folds its queue in
    // arrival order, so simulations stay bit-for-bit reproducible for a
    // given shard count (the summation order changes across shard counts).
    // Multi-threaded pools are exercised by tests/ and bench_micro_*.
    aggregators_.push_back(std::make_unique<fl::Aggregator>(
        "agg-" + std::to_string(i), /*num_threads=*/1));
    coordinator_->register_aggregator(*aggregators_.back(), 0.0);
  }
  std::vector<float> params(initial_model->params().begin(),
                            initial_model->params().end());
  coordinator_->submit_task(config_.task, std::move(params),
                            config_.server_opt);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.num_selectors);
       ++i) {
    selectors_.push_back(
        std::make_unique<fl::Selector>("sel-" + std::to_string(i)));
    selectors_.back()->refresh(*coordinator_);
  }

  devices_.assign(population_->size(), DeviceRecord{});
  has_runtime_.assign((population_->size() + 63) / 64, 0);
  advise_huge_pages(devices_.data(), devices_.size() * sizeof(DeviceRecord));
  if (!devices_.empty()) {
    // Interleave the check-in draw counters with the rest of the per-device
    // record (stride in u32 units across DeviceRecord).  Bound before any
    // draw, so no internal counters exist to migrate.
    constexpr std::size_t kStride = sizeof(DeviceRecord) / sizeof(std::uint32_t);
    streams_.bind_dense_counters(StreamPurpose::kCheckInBackoff,
                                 &devices_.front().checkin_counter, kStride);
    streams_.bind_dense_counters(StreamPurpose::kAvailability,
                                 &devices_.front().avail_counter, kStride);
  }
  metrics_rng_ = util::StreamRng(
      config_.seed, SimStreams::kServerEntity,
      static_cast<std::uint64_t>(StreamPurpose::kMetricsSampling));
  if (config_.metrics.max_timeseries_points > 0) {
    result_.loss_curve.set_capacity(config_.metrics.max_timeseries_points);
    result_.active_clients.set_capacity(config_.metrics.max_timeseries_points);
    result_.busy_clients.set_capacity(config_.metrics.max_timeseries_points);
  }
}

FlSimulator::~FlSimulator() = default;

void FlSimulator::dispatch_event(void* ctx, EventKind kind,
                                 std::uint32_t entity, std::uint32_t payload,
                                 double now) {
  auto* self = static_cast<FlSimulator*>(ctx);
  const auto device = static_cast<std::size_t>(entity);
  const auto generation = static_cast<std::uint64_t>(payload);
  switch (static_cast<SimEvent>(kind)) {
    case SimEvent::kCheckIn:
      if (!self->stopped_) self->handle_check_in(device, now);
      break;
    case SimEvent::kDropout:
      if (!self->stopped_) self->handle_dropout(device, generation, now);
      break;
    case SimEvent::kCompletion:
      if (!self->stopped_) self->handle_completion(device, generation, now);
      break;
    case SimEvent::kCloseBusy:
      // Deliberately no stopped_ gate: busy-gauge bookkeeping ran even
      // after stop() under the closure scheduler, and the fingerprint
      // equality tests pin that behaviour.
      if (self->devices_[device].generation == generation) {
        self->close_busy(device, now);
      }
      break;
    case SimEvent::kReportTick:
      self->handle_server_report_tick(now);
      break;
    case SimEvent::kAggregatorFailure:
      // The current owner crashes: it stops heartbeating and serving.
      if (fl::Aggregator* owner =
              self->route_to_owner(SimStreams::kServerEntity);
          owner != nullptr) {
        self->failed_aggregator_ = owner->id();
      }
      break;
    default:
      throw std::logic_error("FlSimulator: unknown event kind dispatched");
  }
}

void FlSimulator::schedule_sim_event_in(double delay, SimEvent kind,
                                        std::size_t device,
                                        std::uint32_t generation) {
  queue_.schedule_event_in(delay, /*tie_key=*/0,
                           static_cast<EventKind>(kind),
                           static_cast<std::uint32_t>(device), generation);
}

std::unique_ptr<ml::LanguageModel> FlSimulator::make_model_with_params(
    std::span<const float> params) const {
  // sim-streams-exempt: mirrors the construction-time init draw exactly.
  util::Rng init_rng(config_.seed ^ 0x0de1ULL);
  auto model = build_model(config_.model_kind, config_.model, init_rng);
  if (params.size() != model->num_params()) {
    throw std::invalid_argument("make_model_with_params: size mismatch");
  }
  std::copy(params.begin(), params.end(), model->params().begin());
  return model;
}

fl::Aggregator* FlSimulator::route_to_owner(std::uint64_t entity) {
  fl::Selector& selector = *selectors_[streams_.uniform_int(
      entity, StreamPurpose::kRouting, selectors_.size())];
  auto agg_id = selector.route(config_.task.name);
  if (!agg_id) {
    // Stale-map miss: retry via another Selector after refresh (App. E.4).
    fl::Selector& retry = *selectors_[streams_.uniform_int(
        entity, StreamPurpose::kRouting, selectors_.size())];
    retry.refresh(*coordinator_);
    agg_id = retry.route(config_.task.name);
  }
  if (!agg_id) return nullptr;
  for (auto& aggregator : aggregators_) {
    if (aggregator->id() == *agg_id && aggregator->has_task(config_.task.name)) {
      return aggregator.get();
    }
  }
  return nullptr;
}

fl::ClientRuntime& FlSimulator::runtime_for(std::size_t device) {
  std::unique_ptr<fl::ClientRuntime>& slot =
      runtimes_[static_cast<std::uint64_t>(device)];
  if (!slot) {
    const DeviceProfile profile = population_->profile(device);
    fl::ExampleStore store(
        corpus_->client_dataset(profile.id, profile.num_examples),
        /*max_retained_examples=*/10000);
    slot = std::make_unique<fl::ClientRuntime>(profile.id, std::move(store));
    has_runtime_[device >> 6] |= std::uint64_t{1} << (device & 63);
  }
  return *slot;
}

fl::ClientRuntime* FlSimulator::find_runtime(std::size_t device) {
  // Bitmap first: "never joined" — the overwhelming majority at 10M
  // devices — answers from cache without probing the hash map.
  if ((has_runtime_[device >> 6] & (std::uint64_t{1} << (device & 63))) == 0) {
    return nullptr;
  }
  const auto it = runtimes_.find(static_cast<std::uint64_t>(device));
  return it == runtimes_.end() ? nullptr : it->second.get();
}

std::uint32_t FlSimulator::acquire_slot(std::size_t device) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(part_pool_.size());
    part_pool_.emplace_back();
  }
  devices_[device].part_slot = slot;
  Participation& part = part_pool_[slot];
  part.version_at_join = 0;
  part.join_time = 0.0;
  part.exec_time = 0.0;
  part.pipelined_latency_s = 0.0;
  part.upload_chunks = 0;
  part.busy_open = false;
  part.model_snapshot.clear();
  return slot;
}

void FlSimulator::release_slot(std::size_t device) {
  const std::uint32_t slot = devices_[device].part_slot;
  // The snapshot's capacity stays with the recycled slot: the pool is sized
  // by peak concurrency, so this trades O(active x model) bytes for never
  // reallocating a snapshot buffer after warm-up.
  part_pool_[slot].model_snapshot.clear();
  devices_[device].part_slot = kNoParticipation;
  free_slots_.push_back(slot);
}

void FlSimulator::note_participation(const ParticipationRecord& rec) {
  result_.summary.observe(rec);
  if (!config_.record_participations) return;
  const std::size_t cap = config_.metrics.max_participation_records;
  if (cap == 0) {
    result_.participations.push_back(rec);
    return;
  }
  // Reservoir sample, Algorithm R: after N offers every record survives
  // with probability cap/N.  The draw comes from the dedicated
  // kMetricsSampling stream, never the participation-path streams, so
  // capping cannot perturb a trajectory.
  ++reservoir_seen_;
  if (result_.participations.size() < cap) {
    result_.participations.push_back(rec);
    return;
  }
  const std::uint64_t victim = metrics_rng_.uniform_int(reservoir_seen_);
  if (victim < cap) {
    result_.participations[static_cast<std::size_t>(victim)] = rec;
  }
}

void FlSimulator::record_active(double now) {
  if (config_.record_utilization) {
    result_.active_clients.add(now, static_cast<double>(active_count_));
  }
}

void FlSimulator::record_busy(double now) {
  if (config_.record_utilization && config_.task.pipelined_clients) {
    result_.busy_clients.add(now, static_cast<double>(busy_count_));
  }
}

void FlSimulator::close_busy(std::size_t device, double now) {
  if (!participating(device)) return;
  Participation& part = participation(device);
  if (!part.busy_open) return;
  part.busy_open = false;
  assert(busy_count_ > 0);
  --busy_count_;
  record_busy(now);
}

void FlSimulator::plan_pipeline(std::size_t device, double download,
                                double upload) {
  // Plan the overlapped device-side schedule for this participation.  The
  // chunk layout is known before training ends (the delta is always
  // model_size parameters), the upload duration is the same single draw the
  // sequential charge uses (split bytes-proportionally across chunks), and
  // serialization is costed deterministically — so the plan consumes no
  // randomness beyond the sequential runtime's.
  Participation& part = participation(device);
  const std::uint64_t wire_bytes =
      fl::serialized_update_bytes(config_.task.model_size);
  const std::uint32_t chunks =
      fl::chunk_count(wire_bytes, config_.upload_chunk_bytes);

  std::vector<std::uint64_t> chunk_bytes(chunks, config_.upload_chunk_bytes);
  chunk_bytes.back() =
      wire_bytes - static_cast<std::uint64_t>(chunks - 1) *
                       config_.upload_chunk_bytes;

  fl::PipelineTimings timings;
  timings.train_s = part.exec_time;
  timings.upload_chunk_s = network_->split_upload_time(upload, chunk_bytes);
  timings.serialize_chunk_s.reserve(chunks);
  for (const std::uint64_t b : chunk_bytes) {
    timings.serialize_chunk_s.push_back(network_->serialize_time_s(b));
  }

  fl::PipelinedClientSession pipeline(std::move(timings));
  part.pipelined_latency_s = download + pipeline.finish_time();
  part.upload_chunks = chunks;

  // Device-busy accounting: the device is busy from join until its
  // pipelined schedule drains (or until the participation ends early).
  part.busy_open = true;
  ++busy_count_;
  record_busy(queue_.now());
  schedule_sim_event_in(part.pipelined_latency_s, SimEvent::kCloseBusy, device,
                        devices_[device].generation);
}

void FlSimulator::schedule_check_in(std::size_t device, double delay) {
  schedule_sim_event_in(delay, SimEvent::kCheckIn, device);
}

void FlSimulator::handle_check_in(std::size_t device, double now) {
  if (participating(device)) return;

  const double backoff = streams_.exponential(
      device, StreamPurpose::kCheckInBackoff,
      1.0 / config_.mean_checkin_interval_s);

  // Device-side eligibility (Sec. 4): idle / charging / unmetered modelled
  // as a Bernoulli availability draw per check-in, plus the participation-
  // history policy.  A device that has never joined has no history and
  // fresh default conditions, so its eligibility is a pure function of the
  // idle draw — the overwhelmingly common rejected check-in at
  // million-device scale never materializes a ClientRuntime (or its
  // per-client dataset).  Draw order is unchanged in every mode.
  const bool idle = !streams_.bernoulli(
      device, StreamPurpose::kAvailability, config_.device_unavailable_prob);
  if (fl::ClientRuntime* runtime = find_runtime(device)) {
    runtime->conditions().idle = idle;
    if (!runtime->check_in_allowed(config_.eligibility, now)) {
      schedule_check_in(device, backoff);
      return;
    }
  } else if (!idle) {
    schedule_check_in(device, backoff);
    return;
  }

  // Selection phase (Sec. 6.1): ask the Coordinator for an eligible task.
  const DeviceProfile profile = population_->profile(device);
  fl::ClientCapabilities caps{profile.capabilities};
  const auto assignment = coordinator_->assign_client(caps);
  if (!assignment) {
    schedule_check_in(device, backoff);
    return;
  }

  // Route through a random Selector; on a stale-map miss, refresh and retry
  // through another Selector (App. E.4).
  fl::Aggregator* aggregator = route_to_owner(device);
  if (aggregator == nullptr || aggregator->id() == failed_aggregator_) {
    coordinator_->assignment_concluded(assignment->task);
    schedule_check_in(device, backoff);
    return;
  }

  const fl::JoinResult join =
      aggregator->client_join(assignment->task, profile.id, now);
  coordinator_->assignment_concluded(assignment->task);
  if (!join.accepted) {
    schedule_check_in(device, backoff);
    return;
  }

  // Participation begins: snapshot the model the client downloads.
  Participation& part = part_pool_[acquire_slot(device)];
  ++devices_[device].generation;
  part.version_at_join = join.model_version;
  part.join_time = now;
  const std::vector<float>& model = aggregator->model(assignment->task);
  part.model_snapshot.assign(model.begin(), model.end());
  part.exec_time =
      streams_.with(device, StreamPurpose::kExecTime, [&](auto& rng) {
        return population_->sample_exec_time(device, rng);
      });
  ++result_.participations_started;
  ++active_count_;
  record_active(now);
  runtime_for(device).record_participation(now);

  const double download =
      streams_.with(device, StreamPurpose::kDownloadJitter, [&](auto& rng) {
        return network_->download_time_s(model_bytes_, rng);
      });
  const std::uint32_t generation = devices_[device].generation;

  if (streams_.bernoulli(device, StreamPurpose::kDropout,
                         profile.dropout_prob)) {
    // Mid-participation dropout at a uniform point in local training.
    const double when =
        download +
        streams_.uniform01(device, StreamPurpose::kDropout) * part.exec_time;
    if (config_.task.pipelined_clients) {
      // Busy until the dropout ends the participation.
      part.busy_open = true;
      ++busy_count_;
      record_busy(now);
    }
    schedule_sim_event_in(when, SimEvent::kDropout, device, generation);
    return;
  }

  const double upload =
      streams_.with(device, StreamPurpose::kUploadJitter, [&](auto& rng) {
        return network_->upload_time_s(model_bytes_, rng);
      });
  // Open loop: the report lands at the sequential stage-sum charge, and the
  // pipelined plan (if any) is purely observational.  Closed loop: the plan
  // *is* the arrival process — the report event moves to the last chunk's
  // upload completion under the overlapped schedule (the pipelined
  // finish_time computed by plan_pipeline), so goal waits and round cadence
  // see the latency a pipelined fleet would actually deliver.  The report
  // still arrives as one event; per-chunk arrival instants are observable
  // via PipelinedClientSession::upload_completion_times but not scheduled
  // as separate server events.
  double completion_delay = download + part.exec_time + upload;
  if (config_.task.pipelined_clients) {
    plan_pipeline(device, download, upload);
    if (config_.task.closed_loop_clients) {
      completion_delay = part.pipelined_latency_s;
    }
  }
  schedule_sim_event_in(completion_delay, SimEvent::kCompletion, device,
                        generation);
}

void FlSimulator::end_participation(std::size_t device, double now,
                                    bool reschedule) {
  if (!participating(device)) return;
  // A participation that ends before its pipelined schedule drains
  // (dropout, abort, timeout) frees the device now.
  close_busy(device, now);
  ++devices_[device].generation;  // cancels in-flight events for this participation
  release_slot(device);
  assert(active_count_ > 0);
  --active_count_;
  record_active(now);
  if (reschedule && !stopped_) {
    schedule_check_in(
        device, streams_.exponential(device, StreamPurpose::kCheckInBackoff,
                                     1.0 / config_.mean_checkin_interval_s));
  }
}

void FlSimulator::handle_dropout(std::size_t device, std::uint64_t generation,
                                 double now) {
  if (!participating(device) || devices_[device].generation != generation) return;
  Participation& part = participation(device);

  const DeviceProfile profile = population_->profile(device);
  if (fl::Aggregator* owner = route_to_owner(device); owner != nullptr) {
    owner->client_failed(config_.task.name, profile.id, now);
  }

  ParticipationRecord rec;
  rec.client_id = profile.id;
  rec.start_time = part.join_time;
  rec.exec_time_s = part.exec_time;
  rec.num_examples = profile.num_examples;
  rec.dropped_out = true;
  note_participation(rec);
  end_participation(device, now, /*reschedule=*/true);
}

void FlSimulator::handle_completion(std::size_t device,
                                    std::uint64_t generation, double now) {
  if (!participating(device) || devices_[device].generation != generation) return;
  Participation& part = participation(device);

  const DeviceProfile profile = population_->profile(device);
  fl::ClientRuntime& runtime = runtime_for(device);

  // Run the actual local training on the snapshot downloaded at join time.
  // The shuffle stream is the kTraining purpose: a per-participation seed
  // expanded through xoshiro (SGD consumes thousands of draws), already
  // schedule-independent in both stream modes.
  util::Rng train_rng(streams_.training_seed(
      profile.id, static_cast<std::uint64_t>(devices_[device].generation)));
  const fl::LocalTrainingResult training =
      executor_->train(part.model_snapshot, part.version_at_join, profile.id,
                       runtime.store(), train_rng);

  fl::Aggregator* owner = route_to_owner(device);
  if (owner == nullptr || owner->id() == failed_aggregator_) {
    // No live owner reachable (failover in progress): the upload is lost.
    end_participation(device, now, /*reschedule=*/true);
    return;
  }
  fl::Aggregator& aggregator = *owner;
  fl::ReportResult report;
  if (config_.task.secagg_enabled) {
    // Report stage hands back the SecAgg upload config; the client verifies
    // the attestation, masks, and uploads (Sec. 6.1 stages 3-4).
    const auto upload = aggregator.secure_upload_config(config_.task.name);
    const auto secure_report =
        upload ? fl::SecureBufferManager::prepare_report(
                     aggregator.secure_platform(config_.task.name), *upload,
                     profile.id, part.version_at_join,
                     training.update.num_examples,
                     aggregator.secure_update_weight(
                         config_.task.name, training.update.num_examples),
                     training.update.delta, config_.seed ^ profile.id)
               : std::nullopt;
    if (secure_report) {
      report = aggregator.client_report_secure(config_.task.name,
                                               *secure_report, now);
    } else {
      aggregator.client_failed(config_.task.name, profile.id, now);
      report.outcome = fl::ReportOutcome::kRejectedUnknown;
    }
  } else {
    // Chunked upload (Sec. 6.1 stage 4): the serialized update travels as
    // CRC-checked chunks and is reassembled server-side.  The pipelined
    // runtime streams each chunk the moment its bytes are serialized; the
    // sequential runtime materializes the full update first.  Both produce
    // bit-identical chunk streams (guarded by tests/pipeline_test.cpp), so
    // the knob cannot change what the server folds.
    const std::uint64_t upload_session =
        profile.id ^ static_cast<std::uint64_t>(devices_[device].generation);
    fl::ChunkAssembler assembler(upload_session);
    std::uint32_t chunks_sent = 0;
    if (config_.task.pipelined_clients) {
      fl::stream_update_chunks(
          upload_session, training.update, config_.upload_chunk_bytes,
          /*block_floats=*/1024, [&](fl::UploadChunk chunk) {
            assembler.accept(fl::UploadChunk::deserialize(chunk.serialize()));
            ++chunks_sent;
          });
    } else {
      const util::Bytes serialized = training.update.serialize();
      const auto chunks = fl::chunk_upload(upload_session, serialized,
                                           config_.upload_chunk_bytes);
      for (const auto& chunk : chunks) {
        assembler.accept(fl::UploadChunk::deserialize(chunk.serialize()));
      }
      chunks_sent = static_cast<std::uint32_t>(chunks.size());
    }
    const auto reassembled = assembler.assemble();
    if (!reassembled) {
      aggregator.client_failed(config_.task.name, profile.id, now);
      report.outcome = fl::ReportOutcome::kRejectedUnknown;
    } else {
      report = aggregator.client_report(config_.task.name, *reassembled, now);
    }
    // Ground truth from the bytes actually streamed (the plan in
    // plan_pipeline agrees today, but the wire is authoritative).
    part.upload_chunks = chunks_sent;
  }

  {
    ParticipationRecord rec;
    rec.client_id = profile.id;
    rec.start_time = part.join_time;
    rec.exec_time_s = part.exec_time;
    rec.num_examples = profile.num_examples;
    rec.update_applied = report.outcome == fl::ReportOutcome::kAccepted;
    rec.staleness =
        aggregator.model_version(config_.task.name) - part.version_at_join;
    rec.round_latency_s = now - part.join_time;
    rec.pipelined_latency_s = config_.task.pipelined_clients
                                  ? part.pipelined_latency_s
                                  : rec.round_latency_s;
    rec.upload_chunks = part.upload_chunks;
    note_participation(rec);
  }

  end_participation(device, now, /*reschedule=*/true);

  if (report.server_stepped) {
    // Publish the new server model through the write-bandwidth-limited
    // store (Sec. 7.3); stalls are metered into the result.
    const std::uint64_t version =
        aggregator.model_version(config_.task.name);
    if (version > last_published_version_) {
      (void)model_store_->publish(version, model_bytes_, now);
      last_published_version_ = version;
    }
    on_aborted_clients(report.aborted_clients, now);
    maybe_evaluate(now, /*force=*/false);

    const fl::TaskStats& stats = aggregator.stats(config_.task.name);
    if (!stopped_ && config_.max_server_steps > 0 &&
        stats.server_steps >= config_.max_server_steps) {
      stop(now);
    }
    if (!stopped_ && config_.max_applied_updates > 0 &&
        stats.updates_applied >= config_.max_applied_updates) {
      stop(now);
    }
  }
}

void FlSimulator::on_aborted_clients(const std::vector<std::uint64_t>& aborted,
                                     double now) {
  for (const std::uint64_t client_id : aborted) {
    const auto device = static_cast<std::size_t>(client_id);
    if (device >= devices_.size()) continue;
    if (!participating(device)) continue;
    const Participation& part = participation(device);
    const DeviceProfile profile = population_->profile(device);
    ParticipationRecord rec;
    rec.client_id = client_id;
    rec.start_time = part.join_time;
    rec.exec_time_s = part.exec_time;
    rec.num_examples = profile.num_examples;
    rec.update_applied = false;
    note_participation(rec);
    end_participation(device, now, /*reschedule=*/true);
  }
}

void FlSimulator::maybe_evaluate(double now, bool force) {
  fl::Aggregator* owner = route_to_owner(SimStreams::kServerEntity);
  if (owner == nullptr) return;
  fl::Aggregator& aggregator = *owner;
  const fl::TaskStats& stats = aggregator.stats(config_.task.name);
  if (!force && config_.eval_every_steps > 1 &&
      stats.server_steps % config_.eval_every_steps != 0) {
    return;
  }
  const std::vector<float>& model = aggregator.model(config_.task.name);
  std::copy(model.begin(), model.end(), eval_model_->params().begin());
  const double loss = eval_model_->loss(eval_set_, {});
  result_.loss_curve.add(now, loss);
  if (!stopped_ && config_.target_loss > 0.0 && loss <= config_.target_loss) {
    result_.reached_target = true;
    result_.time_to_target_s = now;
    stop(now);
  }
}

void FlSimulator::handle_server_report_tick(double now) {
  if (stopped_) return;
  // Injected Aggregator failure (App. E.4): the Coordinator notices the
  // missed heartbeats and moves the task; Selectors pick up the new map on
  // their next refresh below.
  if (!failed_aggregator_.empty()) {
    coordinator_->detect_failures(now, config_.aggregator_failure_timeout_s);
  }
  // Server-side timeout sweep frees slots held by clients that will never
  // report (App. E.1: "considered dead due to missed heartbeats").
  for (auto& aggregator : aggregators_) {
    if (aggregator->id() == failed_aggregator_) continue;  // crashed: silent
    if (!aggregator->has_task(config_.task.name)) {
      // Idle aggregators still heartbeat (empty report).
      coordinator_->aggregator_report(aggregator->id(),
                                      aggregator->next_report_sequence(), now,
                                      {});
      continue;
    }
    const auto expired = aggregator->expire_timeouts(config_.task.name, now);
    for (const std::uint64_t client_id : expired) {
      const auto device = static_cast<std::size_t>(client_id);
      if (device < devices_.size() && participating(device)) {
        const Participation& part = participation(device);
        const DeviceProfile profile = population_->profile(device);
        ParticipationRecord rec;
        rec.client_id = client_id;
        rec.start_time = part.join_time;
        rec.exec_time_s = part.exec_time;
        rec.num_examples = profile.num_examples;
        rec.dropped_out = true;
        note_participation(rec);
        end_participation(device, now, /*reschedule=*/true);
      }
    }

    // Periodic demand report to the Coordinator (Sec. 6.2).
    std::vector<fl::TaskReport> reports;
    for (const auto& task : aggregator->task_names()) {
      reports.push_back({task, aggregator->client_demand(task),
                         aggregator->model_version(task)});
    }
    coordinator_->aggregator_report(aggregator->id(),
                                    aggregator->next_report_sequence(), now,
                                    reports);
  }
  // Selectors refresh their assignment maps "on every report" (App. E.4).
  for (auto& selector : selectors_) selector->refresh(*coordinator_);

  schedule_sim_event_in(config_.report_interval_s, SimEvent::kReportTick, 0);
}

void FlSimulator::stop(double now) {
  stopped_ = true;
  result_.end_time_s = now;
}

SimulationResult FlSimulator::run() {
  // Stagger initial device check-ins across one check-in interval.
  for (std::size_t device = 0; device < population_->size(); ++device) {
    schedule_check_in(
        device, streams_.uniform(device, StreamPurpose::kCheckInBackoff, 0.0,
                                 config_.mean_checkin_interval_s));
  }
  schedule_sim_event_in(config_.report_interval_s, SimEvent::kReportTick, 0);
  if (config_.aggregator_failure_at_s > 0.0) {
    queue_.schedule_event_at(
        config_.aggregator_failure_at_s, /*tie_key=*/0,
        static_cast<EventKind>(SimEvent::kAggregatorFailure), 0, 0);
  }

  queue_.run_until(config_.max_sim_time_s, [this] { return stopped_; });
  if (!stopped_) stop(queue_.now());
  result_.events_processed = queue_.events_processed();

  // Final bookkeeping.  After a failover, stats reflect the current owner
  // (counters on the crashed Aggregator died with it).
  fl::Aggregator* owner = route_to_owner(SimStreams::kServerEntity);
  if (owner == nullptr) {
    for (auto& a : aggregators_) {
      if (a->has_task(config_.task.name)) owner = a.get();
    }
  }
  if (owner == nullptr) {
    throw std::logic_error("FlSimulator: task has no owner at shutdown");
  }
  fl::Aggregator& aggregator = *owner;
  result_.task_stats = aggregator.stats(config_.task.name);
  result_.server_steps = result_.task_stats.server_steps;
  result_.comm_trips = result_.task_stats.updates_received;
  result_.model_store_stats = model_store_->stats();

  const std::vector<float>& model = aggregator.model(config_.task.name);
  result_.final_model.assign(model.begin(), model.end());
  std::copy(model.begin(), model.end(), eval_model_->params().begin());
  result_.final_eval_loss = eval_model_->loss(eval_set_, {});
  if (result_.loss_curve.size() == 0) {
    result_.loss_curve.add(queue_.now(), result_.final_eval_loss);
  }
  return result_;
}

}  // namespace papaya::sim
