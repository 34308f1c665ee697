// Wire-format tests: every registered message kind round-trips through
// its codec byte-identically, every ByteSize() declaration matches the
// actual serialized length, truncated frames decode to null, and seeded
// random corruption never crashes the decoder (run under ASan/UBSan in
// CI's sanitize job).

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/messages.h"
#include "lhstar/messages.h"
#include "transport/wire.h"

namespace lhrs::transport {
namespace {

BufferView Payload(const char* s) { return BufferView::FromString(s); }

WireRecord SampleRecord(Key key, const char* value) {
  WireRecord r;
  r.key = key;
  r.tag = key * 31;
  r.value = Payload(value);
  return r;
}

lhrs::RankedRecord SampleRanked(Rank rank, Key key, const char* value) {
  lhrs::RankedRecord r;
  r.rank = rank;
  r.key = key;
  r.value = Payload(value);
  return r;
}

lhrs::WireParityRecord SampleParity(Rank rank) {
  lhrs::WireParityRecord p;
  p.rank = rank;
  p.keys = {Key{11}, std::nullopt, Key{13}, std::nullopt};
  p.lengths = {5, 0, 9, 0};
  p.parity = Payload("parity-bytes");
  return p;
}

lhrs::ParityDelta SampleDelta(Rank rank) {
  lhrs::ParityDelta d;
  d.rank = rank;
  d.slot = 2;
  d.key_op = lhrs::ParityDelta::KeyOp::kSet;
  d.key = 77;
  d.new_length = 16;
  d.delta = Payload("xor-delta-bytes!");
  return d;
}

/// One or more populated samples for every registered message kind.
/// Coverage is asserted against RegisteredWireKinds(), so adding a codec
/// without a sample here fails the suite.
std::vector<std::unique_ptr<MessageBody>> SampleBodies() {
  std::vector<std::unique_ptr<MessageBody>> out;
  const auto add = [&](auto body) { out.push_back(std::move(body)); };

  // --- LH* substrate ------------------------------------------------------
  {
    auto m = std::make_unique<OpRequestMsg>();
    m->op = OpType::kInsert;
    m->op_id = 42;
    m->client = 17;
    m->intended_bucket = 3;
    m->key = 0xDEADBEEF;
    m->value = Payload("record-payload");
    m->hops = 2;
    add(std::move(m));
  }
  add(std::make_unique<OpRequestMsg>());  // Empty-value variant.
  {
    auto m = std::make_unique<OpReplyMsg>();
    m->op_id = 42;
    m->code = StatusCode::kNotFound;
    m->error = "no such key";
    m->value = Payload("found-value");
    m->iam = IamInfo{5, 3};
    add(std::move(m));
  }
  add(std::make_unique<OpReplyMsg>());  // No-IAM, empty-error variant.
  {
    auto m = std::make_unique<OverflowReportMsg>();
    m->bucket = 9;
    m->record_count = 131;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<SplitOrderMsg>();
    m->new_bucket = 12;
    m->new_node = 44;
    m->new_level = 4;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<MoveRecordsMsg>();
    m->bucket = 6;
    m->level = 2;
    m->records = {SampleRecord(1, "alpha"), SampleRecord(2, "beta-longer")};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<SplitDoneMsg>();
    m->bucket = 12;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<ScanRequestMsg>();
    m->op_id = 7;
    m->client = 30;
    m->attached_level = 2;
    m->predicate.contains = BytesFromString("needle");
    m->deterministic = true;
    add(std::move(m));
  }
  {
    // Predicate wire version 1: structured key range.
    auto m = std::make_unique<ScanRequestMsg>();
    m->op_id = 8;
    m->client = 30;
    m->attached_level = 2;
    m->predicate.has_key_range = true;
    m->predicate.key_min = 100;
    m->predicate.key_max = 4'000'000'000'000ULL;
    m->deterministic = false;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<ScanReplyMsg>();
    m->op_id = 7;
    m->bucket = 4;
    m->level = 3;
    m->coverage_failed = true;
    m->records = {SampleRecord(5, "match")};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<ClientOpViaCoordinatorMsg>();
    m->op = OpType::kUpdate;
    m->op_id = 99;
    m->client = 21;
    m->intended_bucket = 8;
    m->key = 1234567;
    m->value = Payload("escalated-payload");
    add(std::move(m));
  }
  {
    auto m = std::make_unique<UnavailableReportMsg>();
    m->node = 15;
    m->bucket = 2;
    m->is_parity = true;
    m->group = 1;
    m->parity_index = 0;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<StateScanRequestMsg>();
    m->op_id = 3;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<StateScanReplyMsg>();
    m->op_id = 3;
    m->bucket = 7;
    m->level = 3;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<SelfCheckRequestMsg>();
    m->bucket = 5;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<SelfCheckReplyMsg>();
    m->bucket = 5;
    m->still_owner = false;
    m->replacement = 61;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<UnderflowReportMsg>();
    m->bucket = 3;
    m->record_count = 2;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<MergeOutMsg>();
    m->parent_bucket = 1;
    m->parent_node = 2;
    m->parent_new_level = 1;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<MergeRecordsMsg>();
    m->parent_bucket = 1;
    m->parent_new_level = 1;
    m->records = {SampleRecord(9, "merged")};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<MergeDoneMsg>();
    m->bucket = 1;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<ImageResetMsg>();
    m->i = 2;
    m->n = 1;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<SurveyRequestMsg>();
    m->survey_id = 11;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<SurveyReplyMsg>();
    m->survey_id = 11;
    m->role = SurveyReplyMsg::Role::kParityBucket;
    m->decommissioned = true;
    m->bucket = 6;
    m->level = 2;
    m->record_count = 52;
    m->group = 1;
    m->parity_index = 1;
    m->k = 2;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<InsertBatchMsg>();
    m->op_id = 91;
    m->seq = 3;
    m->client = 12;
    m->intended_bucket = 5;
    m->attempt = 2;
    m->records = {SampleRecord(41, "bulk-a"), SampleRecord(42, "bulk-b")};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<InsertBatchReplyMsg>();
    m->op_id = 91;
    m->seq = 3;
    m->bucket = 5;
    m->level = 3;
    m->applied = 1;
    m->exists = 0;
    m->bounced = false;
    m->rejected = {SampleRecord(42, "bulk-b")};
    add(std::move(m));
  }

  // --- LH*RS parity & recovery -------------------------------------------
  {
    auto m = std::make_unique<lhrs::ParityDeltaMsg>();
    m->group = 2;
    m->delta = SampleDelta(19);
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::ParityDeltaBatchMsg>();
    m->group = 2;
    m->deltas = {SampleDelta(19), SampleDelta(20)};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::GroupConfigMsg>();
    m->group = 3;
    m->k = 2;
    m->parity_nodes = {71, 72};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::ColumnReadRequestMsg>();
    m->task_id = 4;
    m->group = 1;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::ColumnReadReplyMsg>();
    m->task_id = 4;
    m->column = 2;
    m->records = {SampleRanked(0, 31, "col-record")};
    m->level = 3;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::ColumnReadReplyMsg>();
    m->task_id = 4;
    m->column = 5;  // Parity column variant.
    m->parity_records = {SampleParity(0), SampleParity(1)};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::InstallDataColumnMsg>();
    m->task_id = 4;
    m->bucket = 6;
    m->level = 3;
    m->records = {SampleRanked(1, 33, "installed")};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::InstallParityColumnMsg>();
    m->task_id = 4;
    m->group = 1;
    m->parity_index = 0;
    m->parity_records = {SampleParity(2)};
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::InstallDoneMsg>();
    m->task_id = 4;
    m->column = 5;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::FindRankRequestMsg>();
    m->task_id = 8;
    m->key = 555;
    m->slot = 1;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::FindRankReplyMsg>();
    m->task_id = 8;
    m->found = true;
    m->parity_index = 1;
    m->record = SampleParity(3);
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::RecordReadRequestMsg>();
    m->task_id = 8;
    m->rank = 3;
    m->column = 0;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::RecordReadReplyMsg>();
    m->task_id = 8;
    m->column = 0;
    m->found = true;
    m->record = SampleRanked(3, 555, "degraded-read");
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::ParityRecordRequestMsg>();
    m->task_id = 8;
    m->rank = 3;
    m->column = 4;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::ParityRecordReplyMsg>();
    m->task_id = 8;
    m->column = 4;
    m->found = true;
    m->record = SampleParity(3);
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::PingRequestMsg>();
    m->probe_id = 66;
    add(std::move(m));
  }
  {
    auto m = std::make_unique<lhrs::PongReplyMsg>();
    m->probe_id = 66;
    add(std::move(m));
  }

  return out;
}

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAllWireCodecs(); }
};

// Every registered kind has at least one sample, so the round-trip suite
// below actually covers the whole registry.
TEST_F(WireTest, EveryRegisteredKindHasASample) {
  std::set<int> sampled;
  for (const auto& body : SampleBodies()) sampled.insert(body->kind());
  for (int kind : RegisteredWireKinds()) {
    EXPECT_TRUE(sampled.contains(kind))
        << "no sample body for registered kind " << kind << " ("
        << FindWireCodec(kind)->name << ")";
  }
}

// serialize -> deserialize -> serialize must be byte-identical, proving
// the decoder reconstructs every field the encoder wrote.
TEST_F(WireTest, RoundTripIsByteIdentical) {
  for (const auto& body : SampleBodies()) {
    WireWriter w1;
    ASSERT_TRUE(SerializeBody(*body, w1))
        << "kind " << body->kind() << " did not serialize";
    const Bytes bytes1 = w1.Flatten();

    std::unique_ptr<MessageBody> decoded =
        DeserializeBody(body->kind(), BufferView(bytes1));
    ASSERT_NE(decoded, nullptr) << "kind " << body->kind() << " ("
                                << FindWireCodec(body->kind())->name
                                << ") did not decode its own encoding";
    EXPECT_EQ(decoded->kind(), body->kind());

    WireWriter w2;
    ASSERT_TRUE(SerializeBody(*decoded, w2));
    EXPECT_EQ(bytes1, w2.Flatten())
        << "kind " << body->kind() << " ("
        << FindWireCodec(body->kind())->name
        << ") re-encoded differently after a round trip";
  }
}

// The simulator charges transmission time by ByteSize(); the transport
// sends the serialized form. The two must agree or simulated and real
// costs diverge silently.
TEST_F(WireTest, ByteSizeMatchesSerializedLength) {
  for (const auto& body : SampleBodies()) {
    WireWriter w;
    ASSERT_TRUE(SerializeBody(*body, w));
    EXPECT_EQ(w.size(), body->ByteSize())
        << "kind " << body->kind() << " ("
        << FindWireCodec(body->kind())->name
        << ") declares a ByteSize different from its serialized length";
  }
}

// A scan predicate carrying a native function cannot travel; the
// serializer must refuse rather than silently drop the closure.
TEST_F(WireTest, CustomScanPredicateIsUnserializable) {
  ScanRequestMsg msg;
  msg.predicate.custom = [](Key, std::span<const uint8_t>) { return true; };
  WireWriter w;
  EXPECT_FALSE(SerializeBody(msg, w));
}

// The structured key-range predicate survives the wire with both bounds
// and composes with `contains`.
TEST_F(WireTest, ScanRequestKeyRangeRoundTrips) {
  ScanRequestMsg msg;
  msg.op_id = 11;
  msg.client = 3;
  msg.predicate.contains = BytesFromString("needle");
  msg.predicate.has_key_range = true;
  msg.predicate.key_min = 42;
  msg.predicate.key_max = 1000;
  WireWriter w;
  ASSERT_TRUE(SerializeBody(msg, w));
  const Bytes bytes = w.Flatten();

  auto decoded = DeserializeBody(msg.kind(), BufferView(bytes));
  ASSERT_NE(decoded, nullptr);
  const auto& out = static_cast<const ScanRequestMsg&>(*decoded);
  EXPECT_TRUE(out.predicate.has_key_range);
  EXPECT_EQ(out.predicate.key_min, 42u);
  EXPECT_EQ(out.predicate.key_max, 1000u);
  EXPECT_EQ(out.predicate.contains, msg.predicate.contains);
  // And the predicate actually selects on the decoded range.
  const Bytes hit = BytesFromString("a needle here");
  EXPECT_TRUE(out.predicate.Matches(500, hit));
  EXPECT_FALSE(out.predicate.Matches(41, hit));
  EXPECT_FALSE(out.predicate.Matches(1001, hit));
}

// A contains-only request encodes byte-identically to the pre-range frame
// (the version byte occupies what used to be zero padding), so old
// decoders keep reading new frames and vice versa.
TEST_F(WireTest, LegacyScanRequestFrameDecodesWithoutRange) {
  ScanRequestMsg msg;
  msg.op_id = 12;
  msg.predicate.contains = BytesFromString("x");
  WireWriter w;
  ASSERT_TRUE(SerializeBody(msg, w));
  const Bytes bytes = w.Flatten();
  // Version byte (offset 17: op_id 8 + client 4 + level 4 + bool 1) is 0 —
  // indistinguishable from the legacy layout's padding.
  ASSERT_GT(bytes.size(), 17u);
  EXPECT_EQ(bytes[17], 0);

  auto decoded = DeserializeBody(msg.kind(), BufferView(bytes));
  ASSERT_NE(decoded, nullptr);
  const auto& out = static_cast<const ScanRequestMsg&>(*decoded);
  EXPECT_FALSE(out.predicate.has_key_range);
  EXPECT_EQ(out.predicate.contains, msg.predicate.contains);
}

// Forward compatibility: a frame from a hypothetical newer build (higher
// predicate version, extra trailing fields) decodes its known prefix
// instead of bouncing the scan.
TEST_F(WireTest, FutureScanPredicateVersionIsTolerated) {
  ScanRequestMsg msg;
  msg.op_id = 13;
  msg.predicate.has_key_range = true;
  msg.predicate.key_min = 7;
  msg.predicate.key_max = 9;
  WireWriter w;
  ASSERT_TRUE(SerializeBody(msg, w));
  Bytes bytes = w.Flatten();
  bytes[17] = 2;                              // Pretend version 2...
  bytes.insert(bytes.end(), {1, 2, 3, 4});    // ...with unknown fields.

  auto decoded = DeserializeBody(msg.kind(), BufferView(bytes));
  ASSERT_NE(decoded, nullptr);
  const auto& out = static_cast<const ScanRequestMsg&>(*decoded);
  EXPECT_TRUE(out.predicate.has_key_range);
  EXPECT_EQ(out.predicate.key_min, 7u);
  EXPECT_EQ(out.predicate.key_max, 9u);
}

TEST_F(WireTest, UnknownKindDeserializesToNull) {
  const Bytes bytes = {0, 1, 2, 3};
  EXPECT_EQ(DeserializeBody(9999, BufferView(bytes)), nullptr);
  EXPECT_EQ(FindWireCodec(9999), nullptr);
}

// Every strict prefix of a valid frame must be rejected: a truncation
// cannot shrink embedded length/count fields, so the decoder always finds
// itself short of bytes (or with trailing garbage) and must say null —
// never crash, never over-read (ASan-checked in CI).
TEST_F(WireTest, TruncatedFramesAreRejected) {
  for (const auto& body : SampleBodies()) {
    WireWriter w;
    ASSERT_TRUE(SerializeBody(*body, w));
    const Bytes bytes = w.Flatten();
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(DeserializeBody(body->kind(), BufferView(bytes.data(), len)),
                nullptr)
          << "kind " << body->kind() << " accepted a " << len
          << "-byte prefix of its " << bytes.size() << "-byte encoding";
    }
  }
}

// Seeded corruption fuzz: flip random bytes in valid encodings and feed
// random garbage to every codec. The decoder may reject or (for benign
// flips) accept; it must never crash, and whatever it accepts must
// re-serialize without crashing. Runs when LHRS_WIRE_FUZZ_SEED (or the
// shared LHRS_FUZZ_SEED) is set — randomized per CI run (see
// .github/workflows/ci.yml), reproducible locally with
// LHRS_WIRE_FUZZ_SEED=<seed>. The corpus includes the versioned scan
// predicates, so the v0/v1 fallback path is fuzzed too.
TEST_F(WireTest, SeededCorruptionNeverCrashesDecoder) {
  const char* env = std::getenv("LHRS_WIRE_FUZZ_SEED");
  if (env == nullptr) env = std::getenv("LHRS_FUZZ_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set LHRS_WIRE_FUZZ_SEED to run the corruption fuzz";
  }
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  std::printf("wire corruption fuzz seed: %llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);

  const auto samples = SampleBodies();
  const std::vector<int> kinds = RegisteredWireKinds();

  // Mutated valid frames: up to 4 byte flips each.
  for (int iter = 0; iter < 2000; ++iter) {
    const auto& body = samples[rng.Uniform(samples.size())];
    WireWriter w;
    ASSERT_TRUE(SerializeBody(*body, w));
    Bytes bytes = w.Flatten();
    if (bytes.empty()) continue;
    const uint32_t flips = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    std::unique_ptr<MessageBody> decoded =
        DeserializeBody(body->kind(), BufferView(bytes));
    if (decoded != nullptr) {
      WireWriter w2;
      (void)SerializeBody(*decoded, w2);  // Must not crash.
    }
  }

  // Pure garbage against every codec.
  for (int iter = 0; iter < 2000; ++iter) {
    const int kind = kinds[rng.Uniform(kinds.size())];
    const Bytes garbage = rng.RandomBytes(rng.Uniform(512));
    std::unique_ptr<MessageBody> decoded =
        DeserializeBody(kind, BufferView(garbage));
    if (decoded != nullptr) {
      WireWriter w2;
      (void)SerializeBody(*decoded, w2);
    }
  }
}

}  // namespace
}  // namespace lhrs::transport
