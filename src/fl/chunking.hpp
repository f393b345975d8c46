#pragma once
// Chunked model upload (Sec. 6.1, participation stage 4: "the client uploads
// the model in chunks").
//
// Uploads are split into fixed-size chunks, each carrying (session id,
// chunk index, total count, payload, CRC).  The server side reassembles
// out-of-order chunks and rejects corrupt or inconsistent ones, so a
// transient failure wastes one chunk retransmission rather than the whole
// upload — part of what makes the client protocol resilient to transient
// failures without persistent connections.
//
// Two producer paths exist:
//   - chunk_upload(): materialize the whole serialized update, then split —
//     the sequential client runtime.
//   - ChunkSerializer / stream_update_chunks(): emit each chunk the moment
//     its bytes have been serialized, so the upload of chunk i overlaps the
//     serialization of chunk i+1 (the pipelined client runtime, Sec. 6.1's
//     stage-overlapped participation).  Both paths produce bit-identical
//     chunk streams.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "fl/model_update.hpp"
#include "util/bytes.hpp"

namespace papaya::fl {

struct UploadChunk {
  std::uint64_t session_id = 0;
  std::uint32_t index = 0;
  std::uint32_t total = 0;
  util::Bytes payload;
  std::uint32_t crc = 0;

  util::Bytes serialize() const;
  static UploadChunk deserialize(const util::Bytes& bytes);
};

/// CRC-32 (IEEE 802.3, reflected) over a byte span.
///
/// On x86-64 (GCC or Clang) a CPU with PCLMULQDQ folds inputs of 64 bytes
/// or more with carry-less multiplies (Gopal et al., Intel 2009): four
/// 128-bit lanes per 64-byte block, then one lane per 16-byte block, and
/// the table loop for the last 128 bits and the < 16-byte tail.  The CPU
/// check runs once, on first use; shorter inputs, other CPUs and other
/// compilers run the byte-at-a-time table loop.  Both paths compute the
/// same CRC for every input, so no stored value or chunk stream depends on
/// which one ran.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The CRC a well-formed chunk carries: CRC-32 over the chunk's framing
/// (session id, index, total) and its payload.  Covering the framing means
/// a bit-flip anywhere in the chunk — including the index field — fails
/// the check, so reassembly either produces bit-identical bytes or rejects
/// cleanly; a payload-only CRC would let a corrupted index silently land a
/// valid payload in the wrong slot.
std::uint32_t chunk_crc(const UploadChunk& chunk);

/// Split a serialized update into chunks of at most `chunk_size` bytes.
std::vector<UploadChunk> chunk_upload(std::uint64_t session_id,
                                      const util::Bytes& serialized_update,
                                      std::size_t chunk_size);

/// Number of chunks chunk_upload / ChunkSerializer produce for a payload of
/// `payload_bytes` at the given chunk size (an empty payload still travels
/// as one empty chunk so the server learns the session exists).
std::uint32_t chunk_count(std::uint64_t payload_bytes, std::size_t chunk_size);

/// Exact wire size of ModelUpdate::serialize() for an update with
/// `delta_size` parameters: three u64 header fields, the u64 delta length
/// prefix, then 4 bytes per float.  The pipelined client uses this to plan
/// its chunk schedule before the delta bytes exist.
std::uint64_t serialized_update_bytes(std::size_t delta_size);

/// Streaming chunk producer: the client appends serialized bytes in wire
/// order as they become available, and every chunk whose byte range is
/// complete is emitted immediately — no full-update buffer is ever
/// materialized.  The chunk stream (indices, totals, payload bytes, CRCs) is
/// bit-identical to chunk_upload() over the concatenated bytes.
///
/// The total payload size must be declared up front (the UploadChunk wire
/// format carries the chunk count in every chunk); for model updates it is
/// known before training finishes via serialized_update_bytes().
class ChunkSerializer {
 public:
  ChunkSerializer(std::uint64_t session_id, std::uint64_t total_payload_bytes,
                  std::size_t chunk_size);

  /// Append the next `bytes` of the serialized payload, in order.  Throws
  /// std::invalid_argument if this would exceed the declared total.
  void append(std::span<const std::uint8_t> bytes);

  /// All declared bytes appended (every chunk has been emitted).
  bool finished() const { return appended_ == total_bytes_; }

  std::uint32_t total_chunks() const { return total_chunks_; }
  std::uint32_t chunks_emitted() const { return emitted_; }
  std::uint64_t bytes_appended() const { return appended_; }

  /// Chunks whose bytes are complete, in index order.
  bool has_ready() const { return !ready_.empty(); }
  UploadChunk pop_ready();

 private:
  void emit(util::Bytes payload);

  std::uint64_t session_id_;
  std::uint64_t total_bytes_;
  std::size_t chunk_size_;
  std::uint32_t total_chunks_;
  std::uint64_t appended_ = 0;
  std::uint32_t emitted_ = 0;
  util::Bytes pending_;             ///< bytes of the chunk in progress
  std::deque<UploadChunk> ready_;
};

/// Serialize `update` incrementally (header first, then the delta in blocks
/// of `block_floats` parameters) through a ChunkSerializer, invoking `sink`
/// for each chunk as soon as its bytes are complete.  The byte stream is
/// identical to ModelUpdate::serialize(), so the receiving ChunkAssembler
/// reassembles exactly the bytes the sequential path would have uploaded.
/// Returns the total payload bytes streamed.
std::uint64_t stream_update_chunks(
    std::uint64_t session_id, const ModelUpdate& update, std::size_t chunk_size,
    std::size_t block_floats, const std::function<void(UploadChunk)>& sink);

/// Server-side reassembly of one upload session.  Chunks may arrive out of
/// order and may be duplicated; corrupt or inconsistent chunks are rejected.
class ChunkAssembler {
 public:
  enum class Accept {
    kAccepted,
    kDuplicate,
    kCorrupt,        ///< CRC mismatch
    kInconsistent,   ///< wrong session / total mismatch / index out of range
    kComplete,       ///< accepted and the upload is now complete
  };

  explicit ChunkAssembler(std::uint64_t session_id) : session_id_(session_id) {}

  Accept accept(const UploadChunk& chunk);

  bool complete() const { return total_ > 0 && received_ == total_; }

  /// The reassembled payload; nullopt until complete.
  std::optional<util::Bytes> assemble() const;

 private:
  std::uint64_t session_id_;
  std::uint32_t total_ = 0;
  std::size_t received_ = 0;
  std::map<std::uint32_t, util::Bytes> chunks_;
};

}  // namespace papaya::fl
