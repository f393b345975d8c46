// Link-time interposition for the traced benchmark binary.
//
// Each PAPAYA_WRAP row defines __wrap_<mangled>, which opens a span (or
// takes a count) and forwards to __real_<mangled>.  CMakeLists.txt reads the
// mangled names from these rows and links with -Wl,--wrap=<name> for each,
// so this table is the only list: a renamed or re-signatured function
// leaves __real_<name> undefined and the link fails.
//
// --wrap rewrites only references that cross object files.  Calls within one
// source file (crc32 inside chunking.cpp, ChaCha20::keystream_words inside
// chacha20.cpp), header-inline code (Selector routing, SimStreams draws) and
// virtual calls (LanguageModel::loss for evaluation) stay in their caller's
// self time.  The shard workers' fold runs are not wrapped either: they run
// inside ShardedAggregator calls or on worker threads.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/auth_enc.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "fl/agg_strategy.hpp"
#include "fl/aggregator.hpp"
#include "fl/chunking.hpp"
#include "fl/client_runtime.hpp"
#include "fl/coordinator.hpp"
#include "fl/model_update.hpp"
#include "fl/secure_buffer.hpp"
#include "fl/sharded_agg.hpp"
#include "ml/math.hpp"
#include "ml/optimizer.hpp"
#include "secagg/secagg_batch.hpp"
#include "sim/event_queue.hpp"
#include "sim/population.hpp"
#include "trace.hpp"

// Declares real::<id> bound to __real_<mangled> and defines the wrapper
// under the symbol __wrap_<mangled>; the body follows the macro.
#define PAPAYA_WRAP(id, mangled, Ret, Params)       \
  namespace real {                                  \
  Ret id Params __asm__("__real_" #mangled);        \
  }                                                 \
  Ret wrap_##id Params __asm__("__wrap_" #mangled); \
  Ret wrap_##id Params

namespace papaya::benchmark::wraps {

using trace::count;
using trace::Counter;
using trace::Scope;
using trace::Span;

// ---- ml --------------------------------------------------------------------

PAPAYA_WRAP(train, _ZNK6papaya2fl8Executor5trainESt4spanIKfLm18446744073709551615EEmmRKNS0_12ExampleStoreERNS_4util3RngE,
            fl::LocalTrainingResult,
            (const fl::Executor* self, std::span<const float> global,
             std::uint64_t version, std::uint64_t client,
             const fl::ExampleStore& store, util::Rng& rng)) {
  const Scope scope(Span::kMlTrain);
  return real::train(self, global, version, client, store, rng);
}

PAPAYA_WRAP(matvec, _ZN6papaya2ml6matvecESt4spanIKfLm18446744073709551615EES3_S1_IfLm18446744073709551615EEmm,
            void,
            (std::span<const float> w, std::span<const float> x,
             std::span<float> y, std::size_t rows, std::size_t cols)) {
  count(Counter::kMlFlops, 2 * rows * cols);
  real::matvec(w, x, y, rows, cols);
}

PAPAYA_WRAP(matvec_transposed, _ZN6papaya2ml17matvec_transposedESt4spanIKfLm18446744073709551615EES3_S1_IfLm18446744073709551615EEmm,
            void,
            (std::span<const float> w, std::span<const float> x,
             std::span<float> y, std::size_t rows, std::size_t cols)) {
  count(Counter::kMlFlops, 2 * rows * cols);
  real::matvec_transposed(w, x, y, rows, cols);
}

PAPAYA_WRAP(outer_accumulate, _ZN6papaya2ml16outer_accumulateESt4spanIfLm18446744073709551615EES1_IKfLm18446744073709551615EES4_fmm,
            void,
            (std::span<float> w, std::span<const float> a,
             std::span<const float> b, float alpha, std::size_t rows,
             std::size_t cols)) {
  count(Counter::kMlFlops, 2 * rows * cols);
  real::outer_accumulate(w, a, b, alpha, rows, cols);
}

PAPAYA_WRAP(server_opt_step, _ZN6papaya2ml15ServerOptimizer4stepESt4spanIfLm18446744073709551615EES2_IKfLm18446744073709551615EE,
            void,
            (ml::ServerOptimizer* self, std::span<float> params,
             std::span<const float> delta)) {
  const Scope scope(Span::kMlServerOpt);
  real::server_opt_step(self, params, delta);
}

// ---- fl: wire format -------------------------------------------------------

PAPAYA_WRAP(update_serialize, _ZNK6papaya2fl11ModelUpdate9serializeEv,
            util::Bytes, (const fl::ModelUpdate* self)) {
  const Scope scope(Span::kFlSerialize);
  return real::update_serialize(self);
}

PAPAYA_WRAP(chunk_upload, _ZN6papaya2fl12chunk_uploadEmRKSt6vectorIhSaIhEEm,
            std::vector<fl::UploadChunk>,
            (std::uint64_t session, const util::Bytes& update,
             std::size_t chunk_size)) {
  const Scope scope(Span::kFlChunk);
  return real::chunk_upload(session, update, chunk_size);
}

PAPAYA_WRAP(chunk_crc, _ZN6papaya2fl9chunk_crcERKNS0_11UploadChunkE,
            std::uint32_t, (const fl::UploadChunk& chunk)) {
  const Scope scope(Span::kFlChunk);
  return real::chunk_crc(chunk);
}

PAPAYA_WRAP(chunk_serialize, _ZNK6papaya2fl11UploadChunk9serializeEv,
            util::Bytes, (const fl::UploadChunk* self)) {
  const Scope scope(Span::kFlChunk);
  return real::chunk_serialize(self);
}

PAPAYA_WRAP(chunk_deserialize, _ZN6papaya2fl11UploadChunk11deserializeERKSt6vectorIhSaIhEE,
            fl::UploadChunk, (const util::Bytes& frame)) {
  const Scope scope(Span::kFlAssemble);
  return real::chunk_deserialize(frame);
}

PAPAYA_WRAP(assembler_accept, _ZN6papaya2fl14ChunkAssembler6acceptERKNS0_11UploadChunkE,
            fl::ChunkAssembler::Accept,
            (fl::ChunkAssembler* self, const fl::UploadChunk& chunk)) {
  const Scope scope(Span::kFlAssemble);
  const fl::ChunkAssembler::Accept verdict =
      real::assembler_accept(self, chunk);
  count(Counter::kAssembleAccepts);
  if (verdict == fl::ChunkAssembler::Accept::kCorrupt ||
      verdict == fl::ChunkAssembler::Accept::kInconsistent) {
    count(Counter::kAssembleRejected);
  }
  return verdict;
}

PAPAYA_WRAP(assembler_assemble, _ZNK6papaya2fl14ChunkAssembler8assembleEv,
            std::optional<util::Bytes>, (const fl::ChunkAssembler* self)) {
  const Scope scope(Span::kFlAssemble);
  return real::assembler_assemble(self);
}

// ---- fl: report and fold ---------------------------------------------------

PAPAYA_WRAP(client_report, _ZN6papaya2fl10Aggregator13client_reportERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorIhSaIhEEd,
            fl::ReportResult,
            (fl::Aggregator* self, const std::string& task,
             const util::Bytes& update, double now)) {
  const Scope scope(Span::kFlReport);
  fl::ReportResult result = real::client_report(self, task, update, now);
  if (result.outcome == fl::ReportOutcome::kAccepted) {
    count(Counter::kReportAccepted);
  }
  return result;
}

PAPAYA_WRAP(fold_enqueue, _ZN6papaya2fl17ShardedAggregator7enqueueEmSt6vectorIhSaIhEEd,
            void,
            (fl::ShardedAggregator* self, std::uint64_t stream,
             util::Bytes update, double weight)) {
  const Scope scope(Span::kFlFoldEnqueue);
  real::fold_enqueue(self, stream, std::move(update), weight);
}

PAPAYA_WRAP(fold_reduce, _ZN6papaya2fl17ShardedAggregator16reduce_and_resetEv,
            fl::ParallelAggregator::Reduced, (fl::ShardedAggregator* self)) {
  const Scope scope(Span::kFlFoldReduce);
  return real::fold_reduce(self);
}

PAPAYA_WRAP(decide_strategy, _ZN6papaya2fl15decide_strategyERKNS0_16AggStatsSnapshotENS0_11AggStrategyERKNS0_9AggTuningEm,
            fl::AggStrategy,
            (const fl::AggStatsSnapshot& window, fl::AggStrategy current,
             const fl::AggTuning& tuning, std::size_t workers)) {
  const fl::AggStrategy picked =
      real::decide_strategy(window, current, tuning, workers);
  switch (picked) {
    case fl::AggStrategy::kLocked:
      count(Counter::kPickLocked);
      break;
    case fl::AggStrategy::kMorsel:
      count(Counter::kPickMorsel);
      break;
    case fl::AggStrategy::kStriped:
      count(Counter::kPickStriped);
      break;
    case fl::AggStrategy::kAuto:
      break;
  }
  return picked;
}

// ---- fl: control plane -----------------------------------------------------

PAPAYA_WRAP(assign_client, _ZN6papaya2fl11Coordinator13assign_clientERKNS0_18ClientCapabilitiesE,
            std::optional<fl::ClientAssignment>,
            (fl::Coordinator* self, const fl::ClientCapabilities& caps)) {
  const Scope scope(Span::kFlControl);
  return real::assign_client(self, caps);
}

PAPAYA_WRAP(aggregator_report, _ZN6papaya2fl11Coordinator17aggregator_reportERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmdRKSt6vectorINS0_10TaskReportESaISB_EE,
            void,
            (fl::Coordinator* self, const std::string& aggregator,
             std::uint64_t sequence, double now,
             const std::vector<fl::TaskReport>& reports)) {
  const Scope scope(Span::kFlControl);
  real::aggregator_report(self, aggregator, sequence, now, reports);
}

PAPAYA_WRAP(client_join, _ZN6papaya2fl10Aggregator11client_joinERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmd,
            fl::JoinResult,
            (fl::Aggregator* self, const std::string& task,
             std::uint64_t client, double now)) {
  const Scope scope(Span::kFlControl);
  return real::client_join(self, task, client, now);
}

PAPAYA_WRAP(expire_timeouts, _ZN6papaya2fl10Aggregator15expire_timeoutsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEd,
            std::vector<std::uint64_t>,
            (fl::Aggregator* self, const std::string& task, double now)) {
  const Scope scope(Span::kFlControl);
  return real::expire_timeouts(self, task, now);
}

// ---- secagg ----------------------------------------------------------------

PAPAYA_WRAP(prepare_report, _ZN6papaya2fl19SecureBufferManager14prepare_reportERKNS_6secagg24SimulatedEnclavePlatformERKNS0_18SecureUploadConfigEmmmdSt4spanIKfLm18446744073709551615EEm,
            std::optional<fl::SecureReport>,
            (const secagg::SimulatedEnclavePlatform& platform,
             const fl::SecureUploadConfig& config, std::uint64_t client,
             std::uint64_t version, std::size_t examples, double weight,
             std::span<const float> delta, std::uint64_t client_seed)) {
  const Scope scope(Span::kSecaggPrepare);
  return real::prepare_report(platform, config, client, version, examples,
                              weight, delta, client_seed);
}

PAPAYA_WRAP(client_report_secure, _ZN6papaya2fl10Aggregator20client_report_secureERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_12SecureReportEd,
            fl::ReportResult,
            (fl::Aggregator* self, const std::string& task,
             const fl::SecureReport& report, double now)) {
  const Scope scope(Span::kSecaggReport);
  fl::ReportResult result = real::client_report_secure(self, task, report, now);
  if (result.outcome == fl::ReportOutcome::kAccepted) {
    count(Counter::kSecaggAccepted);
  }
  return result;
}

PAPAYA_WRAP(accept_batch, _ZN6papaya6secagg31BatchedSecureAggregationSession12accept_batchESt4spanIKNS0_18ClientContributionELm18446744073709551615EE,
            std::vector<secagg::TsaAccept>,
            (secagg::BatchedSecureAggregationSession* self,
             std::span<const secagg::ClientContribution> batch)) {
  const Scope scope(Span::kSecaggTsaBatch);
  return real::accept_batch(self, batch);
}

PAPAYA_WRAP(finalize_mean, _ZN6papaya2fl19SecureBufferManager13finalize_meanEv,
            std::optional<std::vector<float>>, (fl::SecureBufferManager* self)) {
  const Scope scope(Span::kSecaggFinalize);
  return real::finalize_mean(self);
}

// ---- crypto ----------------------------------------------------------------

PAPAYA_WRAP(powmod, _ZNK6papaya6crypto7BigUInt6powmodERKS1_S3_,
            crypto::BigUInt,
            (const crypto::BigUInt* self, const crypto::BigUInt& exp,
             const crypto::BigUInt& m)) {
  const Scope scope(Span::kCryptoPowmod);
  return real::powmod(self, exp, m);
}

PAPAYA_WRAP(chacha_keystream, _ZN6papaya6crypto8ChaCha209keystreamEm,
            util::Bytes, (crypto::ChaCha20* self, std::size_t n)) {
  const Scope scope(Span::kCryptoKeystream);
  return real::chacha_keystream(self, n);
}

PAPAYA_WRAP(mask_words, _ZN6papaya6crypto8MaskPrng5wordsEm,
            std::vector<std::uint32_t>,
            (crypto::MaskPrng* self, std::size_t n)) {
  const Scope scope(Span::kCryptoKeystream);
  return real::mask_words(self, n);
}

PAPAYA_WRAP(mask_words_multi, _ZN6papaya6crypto8MaskPrng16fill_words_multiESt4spanIKPS1_Lm18446744073709551615EES2_IKPjLm18446744073709551615EEm,
            void,
            (std::span<crypto::MaskPrng* const> prngs,
             std::span<std::uint32_t* const> outs, std::size_t n)) {
  const Scope scope(Span::kCryptoKeystream);
  real::mask_words_multi(prngs, outs, n);
}

PAPAYA_WRAP(seal, _ZN6papaya6crypto4sealERKSt5arrayIhLm32EEmSt4spanIKhLm18446744073709551615EES7_,
            crypto::SealedBox,
            (const crypto::Digest& key, std::uint64_t sequence,
             std::span<const std::uint8_t> plaintext,
             std::span<const std::uint8_t> associated)) {
  const Scope scope(Span::kCryptoAead);
  return real::seal(key, sequence, plaintext, associated);
}

PAPAYA_WRAP(open, _ZN6papaya6crypto4openERKSt5arrayIhLm32EEmRKNS0_9SealedBoxESt4spanIKhLm18446744073709551615EE,
            std::optional<util::Bytes>,
            (const crypto::Digest& key, std::uint64_t sequence,
             const crypto::SealedBox& box,
             std::span<const std::uint8_t> associated)) {
  const Scope scope(Span::kCryptoAead);
  return real::open(key, sequence, box, associated);
}

// ---- sim -------------------------------------------------------------------

PAPAYA_WRAP(run_until, _ZN6papaya3sim10EventQueue9run_untilEdRKSt8functionIFbvEE,
            void,
            (sim::EventQueue* self, double until,
             const std::function<bool()>& stop)) {
  const Scope scope(Span::kSimRun);
  real::run_until(self, until, stop);
}

PAPAYA_WRAP(schedule_event_in, _ZN6papaya3sim10EventQueue17schedule_event_inEdmhjj,
            void,
            (sim::EventQueue* self, double delay, std::uint64_t tie_key,
             sim::EventKind kind, std::uint32_t entity,
             std::uint32_t payload)) {
  const Scope scope(Span::kSimSchedule);
  real::schedule_event_in(self, delay, tie_key, kind, entity, payload);
}

PAPAYA_WRAP(schedule_event_at, _ZN6papaya3sim10EventQueue17schedule_event_atEdmhjj,
            void,
            (sim::EventQueue* self, double when, std::uint64_t tie_key,
             sim::EventKind kind, std::uint32_t entity,
             std::uint32_t payload)) {
  const Scope scope(Span::kSimSchedule);
  real::schedule_event_at(self, when, tie_key, kind, entity, payload);
}

PAPAYA_WRAP(profile, _ZNK6papaya3sim16DevicePopulation7profileEm,
            sim::DeviceProfile,
            (const sim::DevicePopulation* self, std::size_t device)) {
  const Scope scope(Span::kSimProfile);
  return real::profile(self, device);
}

}  // namespace papaya::benchmark::wraps
