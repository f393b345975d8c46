#pragma once
// FedBuff + Asynchronous SecAgg: the secure buffered-aggregation path.
//
// When a task enables SecAgg, the Aggregator never sees plaintext updates.
// Each aggregation buffer (one aggregation goal's worth of updates) gets a
// fresh TSA masking epoch: the TSA is one-shot (Fig. 16 step 7), so after a
// release the manager rotates to a new TSA instance and a new epoch.
//
// Weighting under SecAgg: the server cannot rescale an individual masked
// update, so example-count weighting is applied *client-side* — the client
// multiplies its delta by sqrt(num_examples) before masking and reports the
// example count in the clear; the server divides the unmasked sum by the
// sum of sqrt(n_i).  Staleness down-weighting is not possible under this
// construction (the staleness is only known at upload, after masking); the
// buffered-asynchronous secure-aggregation literature (So et al. 2021a)
// addresses staleness-aware weighting and is out of scope here.  Staleness
// *bounds* (abort/discard) still apply, since version metadata is public.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "util/sync.hpp"
#include "secagg/secagg_batch.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/tsa.hpp"

namespace papaya::fl {

/// Everything a client needs to prepare a secure contribution for the
/// current masking epoch.  The initial message is an owned copy, not a
/// pointer into the TSA: a client may still hold its upload config when a
/// concurrent finalize rotates the epoch (and frees the old TSA), and the
/// stale config must then fail cleanly at the epoch check — not dangle.
struct SecureUploadConfig {
  std::uint64_t epoch = 0;
  secagg::TsaInitialMessage initial_message;
  crypto::InclusionProof log_proof;
  secagg::QuoteExpectations expectations;
  secagg::FixedPointParams fixed_point;
};

/// A client's secure report: masked contribution plus public metadata.
struct SecureReport {
  std::uint64_t epoch = 0;
  std::uint64_t client_id = 0;
  std::uint64_t initial_version = 0;
  std::size_t num_examples = 0;
  secagg::ClientContribution contribution;
};

enum class SecureSubmitOutcome {
  kAccepted,
  kBuffered,       ///< admitted, TSA verdict lands at a later flush
  kWrongEpoch,     ///< prepared against an already-released masking epoch
  kMalformed,      ///< masked update of the wrong length; never buffered
  kTsaRejected,    ///< TSA refused (tampered/replayed/bad key)
};

/// Manages masking epochs for one task on the server side.
class SecureBufferManager {
 public:
  /// `goal` is the aggregation goal; each epoch pre-generates enough initial
  /// messages for the goal plus in-flight overshoot.  Reports are buffered
  /// and flushed through BatchedSecureAggregationSession — one TSA boundary
  /// crossing, one mask expansion pass, and one blocked fold per flush —
  /// when `batch_size` of them are pending or as soon as the pending ones
  /// could complete the goal.  `batch_size` 1 (or 0) flushes every report
  /// on its own submit.  The accepted set and the unmasked aggregate do not
  /// depend on `batch_size`; only when verdicts surface does.
  SecureBufferManager(std::size_t model_size, std::size_t goal,
                      std::uint64_t seed, std::size_t batch_size = 1);

  /// Server -> client: upload configuration for the current epoch.  Each
  /// call consumes one initial message (they are single-use).  Returns
  /// nullopt when the epoch has no messages left (caller should retry next
  /// epoch).
  std::optional<SecureUploadConfig> next_upload_config();

  /// Client -> server: submit a secure report.  A report that triggers a
  /// flush returns its own TSA verdict (kAccepted or kTsaRejected); one that
  /// stays pending returns kBuffered, and its verdict is decided by a later
  /// submit's flush.  A wrong-length masked update is refused up front
  /// (kMalformed), so it can never reach, and wedge, a flush.
  SecureSubmitOutcome submit(const SecureReport& report, double weight);

  /// Earlier reports that a later submit's flush rejected, since the last
  /// call (the deferred analogue of a returned kTsaRejected).  Resets on
  /// read.
  std::size_t take_rejected();

  std::size_t accepted_count() const {
    util::LockGuard lock(mutex_);
    return accepted_;
  }
  std::size_t pending_count() const {
    util::LockGuard lock(mutex_);
    return pending_.size();
  }
  bool goal_reached() const {
    util::LockGuard lock(mutex_);
    return accepted_ >= goal_;
  }
  std::uint64_t epoch() const {
    util::LockGuard lock(mutex_);
    return epoch_;
  }

  /// Cumulative accounting across every epoch this manager has run, taken
  /// in one lock hold (test hook: the FSM harness and the SecAgg flood
  /// suite assert conservation on it).  Invariants it is built to carry:
  ///   submitted == accepted + rejected + wrong_epoch + pending   (always)
  ///   pending   == pending_weight_slots                          (always)
  /// so a sustained malformed flood can neither drift the accepted set nor
  /// leak buffered slots.
  struct Accounting {
    std::uint64_t submitted = 0;    ///< every submit() call
    std::uint64_t accepted = 0;     ///< TSA-accepted at a flush
    std::uint64_t rejected = 0;     ///< TSA-rejected at a flush, or malformed
    std::uint64_t wrong_epoch = 0;  ///< bounced at the epoch check
    std::uint64_t pending = 0;      ///< buffered, verdict not yet decided
    std::uint64_t pending_weight_slots = 0;  ///< must equal `pending`
    std::uint64_t configs_handed = 0;   ///< next_upload_config() successes
    std::uint64_t epochs_released = 0;  ///< successful finalize_mean() calls
    std::uint64_t epoch = 0;
    std::uint64_t accepted_this_epoch = 0;
    double weight_sum_this_epoch = 0.0;
  };
  Accounting accounting() const;

  /// Unmask, decode, divide by the accumulated weight sum, rotate to a new
  /// epoch.  Returns nullopt if the TSA refuses (below goal).  Nothing is
  /// flushed here: reports stay pending only while they cannot complete the
  /// goal, so a flush could not turn a refusal into a release.
  std::optional<std::vector<float>> finalize_mean();

  /// Client-side helper: scale by `weight`, verify the attestation against
  /// `platform` (standing in for the hardware vendor's public collateral),
  /// then mask + seal.  Returns nullopt if verification fails, or if a
  /// scaled element has no fixed-point encoding (a NaN or infinite element
  /// or weight, or a value beyond the encoding's budget) — the client's
  /// plaintext update never leaves.
  static std::optional<SecureReport> prepare_report(
      const secagg::SimulatedEnclavePlatform& platform,
      const SecureUploadConfig& config, std::uint64_t client_id,
      std::uint64_t initial_version, std::size_t num_examples, double weight,
      std::span<const float> delta, std::uint64_t client_seed);

  /// The platform and measurement this manager attests against (exposed so
  /// tests can build independent verifiers).
  const secagg::SimulatedEnclavePlatform& platform() const {
    return platform_;
  }

 private:
  void rotate_epoch() PAPAYA_REQUIRES(mutex_);

  // Immutable after construction (no guard needed): configuration, the
  // attestation platform, and the verifiable log (appended only in the
  // constructor; proofs/snapshots are pure reads).
  std::size_t model_size_;
  std::size_t goal_;
  std::uint64_t seed_;
  std::size_t batch_size_;

  secagg::SimulatedEnclavePlatform platform_;
  crypto::Digest binary_measurement_{};
  crypto::VerifiableLog log_;
  std::uint64_t binary_leaf_ = 0;
  secagg::FixedPointParams fixed_point_;

  /// Epoch state.  mutex_ is an independent root lock (never nested with
  /// any other lock in the repo; see util/sync.hpp): submit paths, epoch
  /// rotation, and the accessors all serialize on it, so a submit can never
  /// race a finalize_mean into crediting a rotated-away session.
  mutable util::Mutex mutex_;
  std::uint64_t epoch_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::unique_ptr<secagg::TrustedSecureAggregator> tsa_
      PAPAYA_GUARDED_BY(mutex_);
  std::unique_ptr<secagg::BatchedSecureAggregationSession> session_
      PAPAYA_GUARDED_BY(mutex_);
  /// Admitted contributions awaiting a flush (contiguous, so a flush hands
  /// the whole pending run to accept_batch as one span), with their weights
  /// alongside.  Empty whenever the epoch rotates: a release needs the goal,
  /// and reports that could complete the goal are flushed at once.
  std::vector<secagg::ClientContribution> pending_ PAPAYA_GUARDED_BY(mutex_);
  std::vector<double> pending_weights_ PAPAYA_GUARDED_BY(mutex_);
  std::size_t rejected_unclaimed_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::size_t next_message_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::size_t accepted_ PAPAYA_GUARDED_BY(mutex_) = 0;
  double weight_sum_ PAPAYA_GUARDED_BY(mutex_) = 0.0;
  /// Cumulative accounting (never reset by epoch rotation; see Accounting).
  /// rejected_total_ is separate from rejected_unclaimed_, which resets on
  /// take_rejected() and counts only deferred verdicts.
  std::uint64_t submitted_total_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::uint64_t accepted_total_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_total_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::uint64_t wrong_epoch_total_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::uint64_t configs_handed_ PAPAYA_GUARDED_BY(mutex_) = 0;
  std::uint64_t epochs_released_ PAPAYA_GUARDED_BY(mutex_) = 0;
};

}  // namespace papaya::fl
