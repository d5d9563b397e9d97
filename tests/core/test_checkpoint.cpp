#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/rng.hpp"
#include "core/cods.hpp"

namespace cods {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : cluster_(ClusterSpec{.num_nodes = 4, .cores_per_node = 2}),
        space_(cluster_, metrics_, Box{{0, 0}, {15, 15}}) {}

  void put(CodsSpace& space, i32 node, const std::string& var, i32 version,
           const Box& box, u64 seed) {
    CodsClient client(space, Endpoint{node * 2, CoreLoc{node, 0}}, 1);
    std::vector<std::byte> data(box_bytes(box, 8));
    fill_pattern(data, box, 8, seed);
    client.put_seq(var, version, box, data, 8);
  }

  Cluster cluster_;
  Metrics metrics_;
  CodsSpace space_;
};

TEST_F(CheckpointTest, SaveLoadRoundTripPreservesData) {
  put(space_, 0, "t", 0, Box{{0, 0}, {7, 7}}, 5);
  put(space_, 1, "t", 0, Box{{8, 0}, {15, 7}}, 5);
  put(space_, 2, "u", 3, Box{{0, 8}, {15, 15}}, 9);

  std::stringstream stream;
  EXPECT_EQ(space_.save_checkpoint(stream), 3u);

  // Restore into a fresh space on the same cluster.
  Metrics metrics2;
  CodsSpace restored(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_EQ(restored.load_checkpoint(stream), 3u);
  EXPECT_EQ(restored.stored_bytes(), space_.stored_bytes());
  EXPECT_EQ(restored.versions("t"), (std::vector<i32>{0}));
  EXPECT_EQ(restored.latest_version("u"), 3);

  // Content still verifies through a normal get.
  CodsClient consumer(restored, Endpoint{6, CoreLoc{3, 0}}, 2);
  const Box window{{2, 2}, {13, 5}};
  std::vector<std::byte> out(box_bytes(window, 8));
  consumer.get_seq("t", 0, window, out, 8);
  EXPECT_EQ(verify_pattern(out, window, 8, 5), 0u);
}

TEST_F(CheckpointTest, FileRoundTrip) {
  put(space_, 0, "v", 1, Box{{0, 0}, {7, 7}}, 3);
  const std::string path = ::testing::TempDir() + "/space.ckp";
  EXPECT_EQ(space_.save_checkpoint(path), 1u);
  Metrics metrics2;
  CodsSpace restored(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_EQ(restored.load_checkpoint(path), 1u);
  CodsClient consumer(restored, Endpoint{2, CoreLoc{1, 0}}, 2);
  std::vector<std::byte> out(box_bytes(Box{{0, 0}, {7, 7}}, 8));
  consumer.get_seq("v", 1, Box{{0, 0}, {7, 7}}, out, 8);
  EXPECT_EQ(verify_pattern(out, Box{{0, 0}, {7, 7}}, 8, 3), 0u);
}

TEST_F(CheckpointTest, EmptySpaceRoundTrip) {
  std::stringstream stream;
  EXPECT_EQ(space_.save_checkpoint(stream), 0u);
  Metrics metrics2;
  CodsSpace restored(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_EQ(restored.load_checkpoint(stream), 0u);
  EXPECT_TRUE(restored.variables().empty());
}

TEST_F(CheckpointTest, ContStateNotCaptured) {
  CodsClient producer(space_, Endpoint{0, CoreLoc{0, 0}}, 1);
  std::vector<std::byte> data(box_bytes(Box{{0, 0}, {3, 3}}, 8));
  producer.put_cont("stream", 0, Box{{0, 0}, {3, 3}}, data, 8);
  std::stringstream stream;
  EXPECT_EQ(space_.save_checkpoint(stream), 0u);
}

TEST_F(CheckpointTest, BadStreamsRejected) {
  {
    std::stringstream garbage("not a checkpoint at all");
    Metrics metrics2;
    CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
    EXPECT_THROW(fresh.load_checkpoint(garbage), Error);
  }
  {
    // Truncated stream: valid header, missing body.
    put(space_, 0, "v", 0, Box{{0, 0}, {7, 7}}, 1);
    std::stringstream stream;
    space_.save_checkpoint(stream);
    std::string bytes = stream.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    Metrics metrics2;
    CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
    EXPECT_THROW(fresh.load_checkpoint(truncated), Error);
  }
  EXPECT_THROW(space_.load_checkpoint("/no/such/file.ckp"), Error);
}

class CheckpointCorruptionTest : public CheckpointTest {
 protected:
  /// One-object checkpoint of var "v" with a 1-byte name: field offsets in
  /// the serialized stream are fixed and documented in checkpoint.cpp.
  std::string one_object_bytes() {
    put(space_, 0, "v", 0, Box{{0, 0}, {7, 7}}, 1);
    std::stringstream stream;
    space_.save_checkpoint(stream);
    return stream.str();
  }

  /// True iff the corrupted bytes are rejected with a cods::Error (and
  /// nothing worse, like bad_alloc or a crash).
  void expect_rejected(std::string bytes) {
    std::stringstream stream(std::move(bytes));
    Metrics metrics2;
    CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
    EXPECT_THROW(fresh.load_checkpoint(stream), Error);
  }

  // Offsets for a 1-char variable name (see the format comment):
  // magic[8] count[8] var_len[8] var[1] version[4] node[4] ndim[4]
  // lb[2x8] ub[2x8] data_len[8] data[...] crc32[4]
  static constexpr size_t kMagicOffset = 0;
  static constexpr size_t kVarLenOffset = 16;
  static constexpr size_t kNdimOffset = 33;
  static constexpr size_t kDataLenOffset = 69;
  static constexpr size_t kDataOffset = 77;
};

TEST_F(CheckpointCorruptionTest, BitFlippedMagicRejected) {
  std::string bytes = one_object_bytes();
  bytes[kMagicOffset] ^= 0x01;
  expect_rejected(std::move(bytes));
}

TEST_F(CheckpointCorruptionTest, HugeVarLenRejected) {
  std::string bytes = one_object_bytes();
  const u64 huge = u64{1} << 40;
  std::memcpy(bytes.data() + kVarLenOffset, &huge, sizeof(huge));
  expect_rejected(std::move(bytes));
}

TEST_F(CheckpointCorruptionTest, BadNdimRejected) {
  std::string bytes = one_object_bytes();
  for (const i32 ndim : {0, -1, 1000}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + kNdimOffset, &ndim, sizeof(ndim));
    expect_rejected(std::move(mutated));
  }
}

TEST_F(CheckpointCorruptionTest, HugeDataLenRejectedNotAllocated) {
  // The critical hardening case: a corrupted data_len must be rejected by
  // the volume-consistency check *before* any allocation is attempted —
  // a cods::Error, never a std::bad_alloc (or a success on a machine with
  // enough RAM to absorb it).
  std::string bytes = one_object_bytes();
  for (const u64 len : {u64{1} << 62, u64{0}, u64{7}, u64{8192} * 64}) {
    // (box volume is 64 cells: 0, 7 and 8192 bytes/element violate the
    // length bounds; 1<<62 would previously have been a 4 EiB allocation.)
    std::string mutated = bytes;
    std::memcpy(mutated.data() + kDataLenOffset, &len, sizeof(len));
    expect_rejected(std::move(mutated));
  }
}

TEST_F(CheckpointCorruptionTest, TruncationAtEveryLengthRejected) {
  const std::string bytes = one_object_bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream stream(bytes.substr(0, len));
    Metrics metrics2;
    CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
    EXPECT_THROW(fresh.load_checkpoint(stream), Error) << "length " << len;
  }
}

TEST_F(CheckpointCorruptionTest, SeededFuzzNeverCrashes) {
  // Random single-byte corruptions: every outcome must be either a clean
  // load (the flip hit payload bytes or was otherwise benign) or a
  // cods::Error — never a crash, hang or foreign exception.
  put(space_, 1, "w", 2, Box{{8, 8}, {15, 15}}, 4);
  const std::string bytes = one_object_bytes();
  Rng rng(20240806);
  i32 clean = 0;
  i32 rejected = 0;
  for (i32 round = 0; round < 200; ++round) {
    std::string mutated = bytes;
    const size_t pos = rng() % mutated.size();
    mutated[pos] ^= static_cast<char>(1 + rng() % 255);
    std::stringstream stream(std::move(mutated));
    Metrics metrics2;
    CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
    try {
      fresh.load_checkpoint(stream);
      ++clean;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(clean + rejected, 200);
  EXPECT_GT(rejected, 0);  // header flips must have been caught
}

TEST_F(CheckpointCorruptionTest, CorruptPayloadSkippedNotFatal) {
  // Payload corruption is detected by the per-object CRC footer and the
  // object is *skipped*, not fatal: the load survives and reports the loss
  // through the return count and the "ckpt.corrupt_skipped" metric.
  put(space_, 0, "v", 0, Box{{0, 0}, {7, 7}}, 1);
  put(space_, 1, "w", 0, Box{{8, 8}, {15, 15}}, 4);
  std::stringstream stream;
  ASSERT_EQ(space_.save_checkpoint(stream), 2u);
  std::string bytes = stream.str();
  bytes[kDataOffset] ^= 0x40;  // flip one bit inside the first payload

  std::stringstream corrupted(std::move(bytes));
  Metrics metrics2;
  CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_EQ(fresh.load_checkpoint(corrupted), 1u);
  EXPECT_EQ(metrics2.total_count("ckpt.corrupt_skipped"), 1u);
  // The intact object survived and reads back byte-correct.
  const std::vector<std::string> vars = fresh.variables();
  ASSERT_EQ(vars.size(), 1u);
  const std::string survivor = vars.front();
  const Box box = survivor == "w" ? Box{{8, 8}, {15, 15}} : Box{{0, 0}, {7, 7}};
  const u64 seed = survivor == "w" ? 4u : 1u;
  CodsClient consumer(fresh, Endpoint{6, CoreLoc{3, 0}}, 2);
  std::vector<std::byte> out(box_bytes(box, 8));
  consumer.get_seq(survivor, 0, box, out, 8);
  EXPECT_EQ(verify_pattern(out, box, 8, seed), 0u);
}

TEST_F(CheckpointCorruptionTest, CorruptCrcFooterSkipsObject) {
  std::string bytes = one_object_bytes();
  // The footer is the last 4 bytes of a single-object stream.
  bytes[bytes.size() - 2] ^= 0x01;
  std::stringstream stream(std::move(bytes));
  Metrics metrics2;
  CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_EQ(fresh.load_checkpoint(stream), 0u);
  EXPECT_EQ(metrics2.total_count("ckpt.corrupt_skipped"), 1u);
  EXPECT_TRUE(fresh.variables().empty());
}

TEST_F(CheckpointCorruptionTest, V1CheckpointRejectedAsBadMagic) {
  // Format v1 (no CRC footers) is no longer read: a v1 stream synthesized
  // from the v2 bytes by patching the magic and stripping the footer must
  // fail the magic check before it touches the space.
  std::string bytes = one_object_bytes();
  ASSERT_EQ(bytes[7], '2');
  bytes[7] = '1';
  bytes.resize(bytes.size() - 4);  // drop the single object's CRC footer
  std::stringstream stream(std::move(bytes));
  Metrics metrics2;
  CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  put(fresh, 1, "w", 0, Box{{8, 8}, {15, 15}}, 4);
  const u64 stored = fresh.stored_bytes();
  const std::vector<std::string> vars = fresh.variables();
  std::vector<i64> records;
  for (i32 node = 0; node < cluster_.num_nodes(); ++node) {
    records.push_back(fresh.dht().node_record_count(node));
  }
  const u64 v_epoch = fresh.dht().epoch("v", 0);

  try {
    fresh.load_checkpoint(stream);
    ADD_FAILURE() << "a v1 checkpoint loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh.stored_bytes(), stored);
  EXPECT_EQ(fresh.variables(), vars);
  for (i32 node = 0; node < cluster_.num_nodes(); ++node) {
    EXPECT_EQ(fresh.dht().node_record_count(node),
              records[static_cast<size_t>(node)])
        << "node " << node;
  }
  EXPECT_EQ(fresh.dht().epoch("v", 0), v_epoch);
}

TEST_F(CheckpointCorruptionTest, RestoreLostRejectsV1Checkpoint) {
  // The engine's recovery path reads checkpoints through restore_lost, not
  // load_checkpoint: a v1 snapshot must be refused there too, restoring
  // nothing, while the v2 snapshot of the same object still recovers it.
  const std::string v2 = one_object_bytes();
  std::string v1 = v2;
  v1[7] = '1';
  v1.resize(v1.size() - 4);
  const Box box{{0, 0}, {7, 7}};
  ASSERT_EQ(space_.drop_node(0), box_bytes(box, 8));
  const auto to_node_2 = [](i32) -> std::optional<i32> { return 2; };

  std::stringstream v1_stream(std::move(v1));
  try {
    space_.restore_lost(v1_stream, to_node_2);
    ADD_FAILURE() << "a v1 checkpoint was restored";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(space_.stored_bytes(), 0u);
  EXPECT_TRUE(space_.catalog("v", 0).empty());

  std::stringstream v2_stream(v2);
  EXPECT_EQ(space_.restore_lost(v2_stream, to_node_2), box_bytes(box, 8));
  ASSERT_EQ(space_.catalog("v", 0).size(), 1u);
  EXPECT_EQ(space_.catalog("v", 0)[0].owner_loc.node, 2);
  EXPECT_EQ(space_.stored_bytes(), box_bytes(box, 8));
}

TEST_F(CheckpointCorruptionTest, AllObjectsCorruptLoadsEmpty) {
  std::string bytes = one_object_bytes();
  for (size_t pos = kDataOffset; pos < bytes.size() - 4; pos += 7) {
    bytes[pos] ^= 0x55;  // shred the payload
  }
  std::stringstream stream(std::move(bytes));
  Metrics metrics2;
  CodsSpace fresh(cluster_, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_EQ(fresh.load_checkpoint(stream), 0u);
  EXPECT_TRUE(fresh.variables().empty());
  EXPECT_EQ(fresh.stored_bytes(), 0u);
}

TEST_F(CheckpointTest, DropNodeRestoreLostRoundTrip) {
  // The engine's recovery primitive: node 1's objects are dropped, then
  // selectively restored from a checkpoint onto a surviving node, and the
  // data reads back correctly through the DHT.
  put(space_, 0, "t", 0, Box{{0, 0}, {7, 7}}, 5);
  put(space_, 1, "t", 0, Box{{8, 0}, {15, 7}}, 5);
  put(space_, 1, "u", 0, Box{{0, 8}, {15, 15}}, 6);
  std::stringstream snapshot;
  space_.save_checkpoint(snapshot);
  const u64 before = space_.stored_bytes();

  const u64 node1_bytes = box_bytes(Box{{8, 0}, {15, 7}}, 8) +
                          box_bytes(Box{{0, 8}, {15, 15}}, 8);
  EXPECT_EQ(space_.drop_node(1), node1_bytes);
  EXPECT_EQ(space_.stored_bytes(), before - node1_bytes);
  // The dropped regions are gone from the catalog and the DHT.
  EXPECT_EQ(space_.catalog("u", 0).size(), 0u);
  EXPECT_EQ(space_.catalog("t", 0).size(), 1u);

  // Restore only what is missing, remapped onto node 2.
  const u64 restored = space_.restore_lost(
      snapshot, [](i32) -> std::optional<i32> { return 2; });
  EXPECT_EQ(restored, node1_bytes);
  EXPECT_EQ(space_.stored_bytes(), before);
  // The surviving node-0 object kept its original home.
  for (const DataLocation& loc : space_.catalog("t", 0)) {
    EXPECT_EQ(loc.owner_loc.node, loc.box.lb[0] == 0 ? 0 : 2);
  }

  CodsClient consumer(space_, Endpoint{6, CoreLoc{3, 0}}, 2);
  std::vector<std::byte> out(box_bytes(Box{{0, 0}, {15, 7}}, 8));
  consumer.get_seq("t", 0, Box{{0, 0}, {15, 7}}, out, 8);
  EXPECT_EQ(verify_pattern(out, Box{{0, 0}, {15, 7}}, 8, 5), 0u);
  std::vector<std::byte> out2(box_bytes(Box{{0, 8}, {15, 15}}, 8));
  consumer.get_seq("u", 0, Box{{0, 8}, {15, 15}}, out2, 8);
  EXPECT_EQ(verify_pattern(out2, Box{{0, 8}, {15, 15}}, 8, 6), 0u);
}

TEST_F(CheckpointTest, RestoreLostSkipsLiveObjects) {
  put(space_, 0, "t", 0, Box{{0, 0}, {7, 7}}, 5);
  std::stringstream snapshot;
  space_.save_checkpoint(snapshot);
  // Nothing was lost: restore must be a no-op even with a greedy remap.
  EXPECT_EQ(space_.restore_lost(snapshot,
                                [](i32) -> std::optional<i32> { return 3; }),
            0u);
  ASSERT_EQ(space_.catalog("t", 0).size(), 1u);
  EXPECT_EQ(space_.catalog("t", 0)[0].owner_loc.node, 0);
}

TEST_F(CheckpointTest, SaveToUnwritablePathRejected) {
  put(space_, 0, "v", 0, Box{{0, 0}, {7, 7}}, 1);
  EXPECT_THROW(space_.save_checkpoint("/no/such/dir/space.ckp"), Error);
}

TEST_F(CheckpointTest, SeededRoundTripFuzz) {
  // Randomized save/load round trips: arbitrary object populations must
  // survive serialization byte-exactly.
  Rng rng(99);
  for (i32 round = 0; round < 20; ++round) {
    Metrics m1;
    CodsSpace original(cluster_, m1, Box{{0, 0}, {15, 15}});
    const i32 objects = 1 + static_cast<i32>(rng() % 5);
    for (i32 i = 0; i < objects; ++i) {
      const i64 x0 = static_cast<i64>(rng() % 8);
      const i64 y0 = static_cast<i64>(rng() % 8);
      const Box box{{x0, y0},
                    {x0 + static_cast<i64>(rng() % 8),
                     y0 + static_cast<i64>(rng() % 8)}};
      put(original, static_cast<i32>(rng() % 4), "v" + std::to_string(i),
          static_cast<i32>(rng() % 3), box, rng());
    }
    std::stringstream stream;
    const u64 saved = original.save_checkpoint(stream);
    EXPECT_EQ(saved, static_cast<u64>(objects));
    Metrics m2;
    CodsSpace restored(cluster_, m2, Box{{0, 0}, {15, 15}});
    EXPECT_EQ(restored.load_checkpoint(stream), saved);
    EXPECT_EQ(restored.stored_bytes(), original.stored_bytes());
    EXPECT_EQ(restored.variables(), original.variables());
  }
}

TEST_F(CheckpointTest, NodeOutOfRangeRejected) {
  put(space_, 3, "v", 0, Box{{0, 0}, {7, 7}}, 1);
  std::stringstream stream;
  space_.save_checkpoint(stream);
  // Restore into a smaller cluster that lacks node 3.
  Cluster small(ClusterSpec{.num_nodes = 2, .cores_per_node = 2});
  Metrics metrics2;
  CodsSpace fresh(small, metrics2, Box{{0, 0}, {15, 15}});
  EXPECT_THROW(fresh.load_checkpoint(stream), Error);
}

}  // namespace
}  // namespace cods
