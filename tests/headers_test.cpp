// Header hygiene suite.
//
// Every public header is included here, in alphabetical order, so a header
// that silently depends on another being included first breaks this TU.  The
// stronger guarantee — each header compiles in a TU of its own — is enforced
// at build time by the papaya_header_check object library in CMakeLists.txt,
// which generates one source file per header.  This suite additionally smoke
// tests a symbol from each module so the link line covers all seven layers.

#include <gtest/gtest.h>

#include "crypto/auth_enc.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "fl/aggregator.hpp"
#include "fl/chunking.hpp"
#include "fl/client_runtime.hpp"
#include "fl/coordinator.hpp"
#include "fl/election.hpp"
#include "fl/model_store.hpp"
#include "fl/model_update.hpp"
#include "fl/parallel_agg.hpp"
#include "fl/secure_buffer.hpp"
#include "fl/selector.hpp"
#include "fl/session.hpp"
#include "fl/task.hpp"
#include "ml/dataset.hpp"
#include "ml/math.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "secagg/attestation.hpp"
#include "secagg/audit.hpp"
#include "secagg/boundary.hpp"
#include "secagg/fixed_point.hpp"
#include "secagg/group.hpp"
#include "secagg/otp.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/secagg_server.hpp"
#include "secagg/tsa.hpp"
#include "sim/event_queue.hpp"
#include "sim/fl_simulator.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/population.hpp"
#include "sim/trace_export.hpp"
#include "smpc/protocol.hpp"
#include "smpc/shamir.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace papaya {
namespace {

TEST(Headers, RequireCpp20) {
  // Mirrors the static_assert in util/bytes.hpp, including its MSVC branch
  // (MSVC leaves __cplusplus at 199711L without /Zc:__cplusplus).
#if defined(_MSVC_LANG)
  EXPECT_GE(_MSVC_LANG, 202002L);
#else
  EXPECT_GE(__cplusplus, 202002L);
#endif
}

TEST(Headers, UtilLayerLinks) {
  util::ByteWriter w;
  w.u32(0xdeadbeef);
  EXPECT_EQ(w.size(), 4u);
}

TEST(Headers, CryptoLayerLinks) {
  const auto digest = crypto::Sha256::hash(std::string("abc"));
  EXPECT_EQ(util::to_hex(digest),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Headers, SmpcLayerLinks) {
  util::Rng rng(7);
  const util::Bytes secret = {1, 2, 3, 4};
  const auto random_bytes = [&rng](std::size_t n) {
    util::Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
    return out;
  };
  const auto shares = smpc::shamir_split(secret, 5, 3, random_bytes);
  EXPECT_EQ(shares.size(), 5u);
}

TEST(Headers, MlLayerLinks) {
  std::vector<float> logits = {1.0f, 2.0f, 3.0f};
  ml::softmax_in_place(logits);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-5f);
}

TEST(Headers, FlLayerLinks) {
  fl::ModelUpdate u;
  u.client_id = 9;
  u.num_examples = 3;
  u.delta = {0.5f, -0.5f};
  const auto round_trip = fl::ModelUpdate::deserialize(u.serialize());
  EXPECT_EQ(round_trip.client_id, 9u);
  EXPECT_EQ(round_trip.delta, u.delta);
}

}  // namespace
}  // namespace papaya
