#include "fl/chunking.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define PAPAYA_CRC_FOLD 1
#define PAPAYA_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))
#endif

namespace papaya::fl {

namespace {

/// Byte-at-a-time table for the reflected IEEE polynomial 0xedb88320.
constexpr std::array<std::uint32_t, 256> kCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}();

std::uint32_t crc32_table(std::uint32_t crc,
                          std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    crc = kCrcTable[(crc ^ byte) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#ifdef PAPAYA_CRC_FOLD

/// One fold step: multiply the low and high 64-bit halves of `x` by the two
/// constants in `k` (carry-less) and add the products.  The result is
/// congruent, modulo the CRC polynomial, to `x` moved forward by the
/// distance the constants encode.
PAPAYA_CRC_FOLD_TARGET inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

PAPAYA_CRC_FOLD_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) for inputs
/// of at least 64 bytes.  Four 128-bit lanes fold 64-byte blocks (constants
/// x^(512+32) and x^(512-32) mod P, bit-reflected); the lanes then fold into
/// one, which folds on over any remaining 16-byte blocks (x^(128+32) and
/// x^(128-32) mod P).  The final 128 bits are congruent to every byte folded
/// so far, so the table loop run over them from register 0 yields exactly
/// the register the byte-at-a-time loop would have reached; no Barrett
/// reduction is needed.
PAPAYA_CRC_FOLD_TARGET std::uint32_t crc32_fold(
    std::uint32_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Entering register `crc` is the same as XORing it into the first four
  // message bytes and starting from 0.
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold(x0, k1k2), load(p));
    x1 = _mm_xor_si128(fold(x1, k1k2), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(0xccaa009e, 0x1751997d0);
  x0 = _mm_xor_si128(fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(fold(x0, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_xor_si128(fold(x0, k3k4), load(p));
  }

  std::array<std::uint8_t, 16> folded{};
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded.data()), x0);
  return crc32_table(crc32_table(0, folded), {p, n});
}

/// The target attribute lets the compiler emit SSE4.1 as well as PCLMULQDQ
/// inside crc32_fold, so the CPU must have both.
bool cpu_has_fold() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // PAPAYA_CRC_FOLD

/// Raw CRC accumulation (pre/post-inversion handled by the callers).
std::uint32_t crc32_accumulate(std::uint32_t crc,
                               std::span<const std::uint8_t> data) {
#ifdef PAPAYA_CRC_FOLD
  if (data.size() >= 64 && cpu_has_fold()) return crc32_fold(crc, data);
#endif
  return crc32_table(crc, data);
}

/// Little-endian store of the low `width` bytes of `v` at `out`.
void put_le(std::uint8_t* out, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_accumulate(0xffffffffu, data) ^ 0xffffffffu;
}

std::uint32_t chunk_crc(const UploadChunk& chunk) {
  // The framing as UploadChunk::serialize lays it out: session id u64,
  // index u32, total u32.
  std::array<std::uint8_t, 16> framing{};
  put_le(framing.data(), chunk.session_id, 8);
  put_le(framing.data() + 8, chunk.index, 4);
  put_le(framing.data() + 12, chunk.total, 4);
  std::uint32_t crc = crc32_accumulate(0xffffffffu, framing);
  crc = crc32_accumulate(crc, chunk.payload);
  return crc ^ 0xffffffffu;
}

util::Bytes UploadChunk::serialize() const {
  // session u64, index u32, total u32, payload length u64, payload, crc u32.
  util::ByteWriter w;
  w.reserve(28 + payload.size());
  w.u64(session_id);
  w.u32(index);
  w.u32(total);
  w.bytes(payload);
  w.u32(crc);
  return std::move(w).take();
}

UploadChunk UploadChunk::deserialize(const util::Bytes& bytes) {
  util::ByteReader r(bytes);
  UploadChunk chunk;
  chunk.session_id = r.u64();
  chunk.index = r.u32();
  chunk.total = r.u32();
  chunk.payload = r.bytes();
  chunk.crc = r.u32();
  return chunk;
}

std::vector<UploadChunk> chunk_upload(std::uint64_t session_id,
                                      const util::Bytes& serialized_update,
                                      std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw std::invalid_argument("chunk_upload: chunk size must be > 0");
  }
  const std::size_t total =
      serialized_update.empty()
          ? 1
          : (serialized_update.size() + chunk_size - 1) / chunk_size;
  std::vector<UploadChunk> chunks;
  chunks.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    UploadChunk chunk;
    chunk.session_id = session_id;
    chunk.index = static_cast<std::uint32_t>(i);
    chunk.total = static_cast<std::uint32_t>(total);
    const std::size_t begin = i * chunk_size;
    const std::size_t end =
        std::min(begin + chunk_size, serialized_update.size());
    chunk.payload.assign(serialized_update.begin() + static_cast<std::ptrdiff_t>(begin),
                         serialized_update.begin() + static_cast<std::ptrdiff_t>(end));
    chunk.crc = chunk_crc(chunk);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::uint32_t chunk_count(std::uint64_t payload_bytes, std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw std::invalid_argument("chunk_count: chunk size must be > 0");
  }
  if (payload_bytes == 0) return 1;
  return static_cast<std::uint32_t>((payload_bytes + chunk_size - 1) /
                                    chunk_size);
}

std::uint64_t serialized_update_bytes(std::size_t delta_size) {
  // The header, then one f32 per parameter (ModelUpdate::serialize's wire
  // format).
  return UpdateHeader::kBytes +
         static_cast<std::uint64_t>(delta_size) * sizeof(std::uint32_t);
}

ChunkSerializer::ChunkSerializer(std::uint64_t session_id,
                                 std::uint64_t total_payload_bytes,
                                 std::size_t chunk_size)
    : session_id_(session_id),
      total_bytes_(total_payload_bytes),
      chunk_size_(chunk_size),
      total_chunks_(chunk_count(total_payload_bytes, chunk_size)) {
  // An empty payload still travels as one empty chunk (chunk_upload parity).
  if (total_bytes_ == 0) emit({});
}

void ChunkSerializer::emit(util::Bytes payload) {
  UploadChunk chunk;
  chunk.session_id = session_id_;
  chunk.index = emitted_;
  chunk.total = total_chunks_;
  chunk.payload = std::move(payload);
  chunk.crc = chunk_crc(chunk);
  ready_.push_back(std::move(chunk));
  ++emitted_;
}

void ChunkSerializer::append(std::span<const std::uint8_t> bytes) {
  if (appended_ + bytes.size() > total_bytes_) {
    throw std::invalid_argument(
        "ChunkSerializer: appended past the declared payload size");
  }
  appended_ += bytes.size();
  while (!bytes.empty()) {
    const std::size_t want = chunk_size_ - pending_.size();
    const std::size_t take = std::min(want, bytes.size());
    pending_.insert(pending_.end(), bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(take));
    bytes = bytes.subspan(take);
    if (pending_.size() == chunk_size_) {
      emit(std::exchange(pending_, {}));
    }
  }
  // The final chunk may be short: emit it as soon as the last byte lands.
  if (appended_ == total_bytes_ && !pending_.empty()) {
    emit(std::exchange(pending_, {}));
  }
}

UploadChunk ChunkSerializer::pop_ready() {
  if (ready_.empty()) {
    throw std::logic_error("ChunkSerializer: no chunk ready");
  }
  UploadChunk chunk = std::move(ready_.front());
  ready_.pop_front();
  return chunk;
}

std::uint64_t stream_update_chunks(
    std::uint64_t session_id, const ModelUpdate& update, std::size_t chunk_size,
    std::size_t block_floats, const std::function<void(UploadChunk)>& sink) {
  if (block_floats == 0) {
    throw std::invalid_argument("stream_update_chunks: block must be > 0");
  }
  const std::uint64_t total = serialized_update_bytes(update.delta.size());
  ChunkSerializer serializer(session_id, total, chunk_size);
  const auto drain = [&] {
    while (serializer.has_ready()) sink(serializer.pop_ready());
  };

  // Header: identical to the first four u64 writes of
  // ModelUpdate::serialize() (the floats() length prefix included).
  util::ByteWriter header;
  header.u64(update.client_id);
  header.u64(update.initial_version);
  header.u64(update.num_examples);
  header.u64(update.delta.size());
  serializer.append(header.data());
  drain();

  // Delta: serialized block_floats parameters at a time, each block handed
  // to the serializer as soon as its bytes exist.
  for (std::size_t start = 0; start < update.delta.size();
       start += block_floats) {
    const std::size_t end =
        std::min(start + block_floats, update.delta.size());
    util::ByteWriter block;
    for (std::size_t i = start; i < end; ++i) block.f32(update.delta[i]);
    serializer.append(block.data());
    drain();
  }
  drain();
  return total;
}

ChunkAssembler::Accept ChunkAssembler::accept(const UploadChunk& chunk) {
  if (chunk.session_id != session_id_) return Accept::kInconsistent;
  if (chunk.total == 0 || chunk.index >= chunk.total) {
    return Accept::kInconsistent;
  }
  // Verify the CRC before adopting the chunk's claimed total: the CRC
  // covers the framing, so only an authentic chunk may establish (or be
  // checked against) the session's chunk count.  Adopting first would let
  // one corrupt chunk poison the session and reject every good chunk.
  if (chunk_crc(chunk) != chunk.crc) return Accept::kCorrupt;
  if (total_ == 0) {
    total_ = chunk.total;
  } else if (chunk.total != total_) {
    return Accept::kInconsistent;
  }
  if (chunks_.contains(chunk.index)) return Accept::kDuplicate;
  chunks_[chunk.index] = chunk.payload;
  ++received_;
  return complete() ? Accept::kComplete : Accept::kAccepted;
}

std::optional<util::Bytes> ChunkAssembler::assemble() const {
  if (!complete()) return std::nullopt;
  std::size_t size = 0;
  for (const auto& [index, payload] : chunks_) size += payload.size();
  util::Bytes out;
  out.reserve(size);
  for (const auto& [index, payload] : chunks_) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

}  // namespace papaya::fl
