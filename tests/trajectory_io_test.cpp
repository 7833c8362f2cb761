// Trajectory archive format: wire-codec roundtrips, writer/reader
// roundtrips, block-footer queries, and crash consistency — a reader over a
// file chopped at *every* byte offset must recover every complete record,
// report the torn tail, and never crash.
#include "ppsim/io/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "ppsim/io/wire.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim::io {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::uint8_t* data,
                std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
}

TrajectoryHeader test_header() {
  TrajectoryHeader h;
  h.engine = "collapsed";
  h.protocol = "usd";
  h.seed = 12345;
  h.population = 1000;
  h.k = 4;
  h.num_states = 5;
  h.stride = 100;
  h.checkpoint_every = 400;
  h.max_interactions = 100000;
  h.tau_epsilon = 0.05;
  h.round_divisor = 16;
  h.channels = {"undecided", "majority"};
  return h;
}

TEST(WireTest, VarintRoundtrip) {
  const std::uint64_t cases[] = {0,   1,    127,        128,
                                 300, 1u << 20, (1ull << 56) + 17, ~0ull};
  for (const std::uint64_t v : cases) {
    Bytes b;
    put_varint(b, v);
    ByteReader r(b.data(), b.size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
  }
}

TEST(WireTest, SvarintRoundtrip) {
  const std::int64_t cases[] = {0, -1, 1, -64, 63, -1'000'000,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : cases) {
    Bytes b;
    put_svarint(b, v);
    ByteReader r(b.data(), b.size());
    EXPECT_EQ(r.svarint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(WireTest, FixedAndDoubleRoundtrip) {
  Bytes b;
  put_fixed64(b, 0xdeadbeefcafef00dull);
  put_f64(b, -1234.5678);
  put_string(b, "hello");
  ByteReader r(b.data(), b.size());
  EXPECT_EQ(r.fixed64(), 0xdeadbeefcafef00dull);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5678);
  EXPECT_EQ(r.string(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WireTest, ReaderNeverOverruns) {
  Bytes b;
  put_varint(b, 1u << 20);
  ByteReader r(b.data(), 1);  // truncated mid-varint
  r.varint();
  EXPECT_FALSE(r.ok());
  ByteReader r2(b.data(), b.size());
  r2.skip(b.size() + 1);
  EXPECT_FALSE(r2.ok());
}

TEST(WireTest, RejectsNonCanonicalVarint) {
  // Eleven continuation bytes can never be a canonical u64.
  Bytes b(11, 0x80);
  ByteReader r(b.data(), b.size());
  r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(TrajectoryTest, WriterReaderRoundtrip) {
  const std::string path = tmp_path("roundtrip.pptraj");
  TrajectoryWriter::Options options;
  options.block_samples = 4;
  {
    TrajectoryWriter writer(path, test_header(), options);
    for (int j = 0; j < 10; ++j) {
      writer.sample(j * 100, {1000.0 - j, static_cast<double>(j) / 3.0});
    }
    EngineCheckpoint cp;
    cp.counts = {100, 200, 300, 400, 0};
    cp.rng_state = {1, 2, 3, 4};
    cp.interactions = 950;
    writer.checkpoint(cp);
    writer.finish(TrajectoryEnd{.stabilized = true,
                                .interactions = 990,
                                .clamped = 7,
                                .consensus = Opinion{2}});
  }

  TrajectoryReader reader(path);
  EXPECT_FALSE(reader.torn_tail());
  const TrajectoryHeader& h = reader.header();
  EXPECT_EQ(h.engine, "collapsed");
  EXPECT_EQ(h.protocol, "usd");
  EXPECT_EQ(h.seed, 12345u);
  EXPECT_EQ(h.population, 1000);
  EXPECT_EQ(h.k, 4);
  EXPECT_EQ(h.stride, 100);
  EXPECT_EQ(h.checkpoint_every, 400);
  EXPECT_EQ(h.build_version, std::string(kBuildVersion));
  EXPECT_EQ(h.spec_hash, h.compute_spec_hash());
  ASSERT_EQ(h.channels, (std::vector<std::string>{"undecided", "majority"}));

  // 10 samples at 4 per block: blocks of 4, 4, then the checkpoint flushes
  // the pending 2.
  ASSERT_EQ(reader.num_blocks(), 3u);
  EXPECT_EQ(reader.block(0).num_samples, 4u);
  EXPECT_EQ(reader.block(2).num_samples, 2u);
  EXPECT_EQ(reader.total_samples(), 10u);
  EXPECT_EQ(reader.block(0).first_interactions, 0);
  EXPECT_EQ(reader.block(0).last_interactions, 300);
  EXPECT_DOUBLE_EQ(reader.block(0).max[0], 1000.0);
  EXPECT_DOUBLE_EQ(reader.block(0).min[0], 997.0);

  ASSERT_EQ(reader.checkpoints().size(), 1u);
  EXPECT_EQ(reader.checkpoints()[0].interactions, 950);
  EXPECT_EQ(reader.checkpoints()[0].counts,
            (std::vector<Count>{100, 200, 300, 400, 0}));

  ASSERT_TRUE(reader.finished());
  EXPECT_TRUE(reader.end()->stabilized);
  EXPECT_EQ(reader.end()->interactions, 990);
  EXPECT_EQ(reader.end()->clamped, 7);
  ASSERT_TRUE(reader.end()->consensus.has_value());
  EXPECT_EQ(*reader.end()->consensus, 2);

  // Full decode: integral column survives delta coding, fractional column
  // survives via raw doubles.
  const TimeSeries series = reader.to_series();
  ASSERT_EQ(series.num_samples(), 10u);
  for (int j = 0; j < 10; ++j) {
    EXPECT_DOUBLE_EQ(series.parallel_time[static_cast<std::size_t>(j)],
                     static_cast<double>(j * 100) / 1000.0);
    EXPECT_DOUBLE_EQ(series.channels[0][static_cast<std::size_t>(j)], 1000.0 - j);
    EXPECT_DOUBLE_EQ(series.channels[1][static_cast<std::size_t>(j)],
                     static_cast<double>(j) / 3.0);
  }

  // Projection + downsampling.
  const TimeSeries every3 = reader.to_series({"majority"}, 3);
  ASSERT_EQ(every3.channel_names, std::vector<std::string>{"majority"});
  EXPECT_EQ(every3.num_samples(), 4u);  // samples 0, 3, 6, 9
  EXPECT_THROW(reader.to_series({"nope"}), CheckFailure);
}

TEST(TrajectoryTest, FooterQueriesSkipBlocks) {
  const std::string path = tmp_path("footers.pptraj");
  TrajectoryWriter::Options options;
  options.block_samples = 8;
  {
    TrajectoryWriter writer(path, test_header(), options);
    for (int j = 0; j < 64; ++j) {
      writer.sample(j * 100, {static_cast<double>(j), 64.0 - j});
    }
    writer.finish(TrajectoryEnd{.stabilized = false,
                                .interactions = 6300,
                                .consensus = std::nullopt});
  }
  TrajectoryReader reader(path);
  ASSERT_EQ(reader.num_blocks(), 8u);
  // undecided rises 0..63: the first sample with value >= 40 is j = 40, at
  // parallel time 40*100/1000.
  EXPECT_DOUBLE_EQ(reader.first_time_at_least("undecided", 40.0), 4.0);
  EXPECT_TRUE(std::isnan(reader.first_time_at_least("undecided", 1000.0)));
  EXPECT_DOUBLE_EQ(reader.channel_max("undecided"), 63.0);
  EXPECT_DOUBLE_EQ(reader.channel_min("majority"), 1.0);
  EXPECT_THROW(reader.channel_max("nope"), CheckFailure);
}

TEST(TrajectoryTest, RejectsNonArchiveFiles) {
  const std::string path = tmp_path("not_an_archive.bin");
  const std::string junk = "this is not a trajectory archive at all";
  write_file(path, reinterpret_cast<const std::uint8_t*>(junk.data()), junk.size());
  EXPECT_THROW(TrajectoryReader{path}, CheckFailure);
  EXPECT_THROW(TrajectoryReader{tmp_path("missing.pptraj")}, CheckFailure);
}

TEST(TrajectoryTest, WriterValidatesInputs) {
  TrajectoryHeader bad = test_header();
  bad.channels = {"tab\tseparated"};
  EXPECT_THROW(TrajectoryWriter(tmp_path("bad.pptraj"), bad), CheckFailure);

  TrajectoryWriter writer(tmp_path("arity.pptraj"), test_header());
  EXPECT_THROW(writer.sample(0, {1.0}), CheckFailure);          // arity
  writer.sample(100, {1.0, 2.0});
  EXPECT_THROW(writer.sample(50, {1.0, 2.0}), CheckFailure);    // clock order
  writer.finish(TrajectoryEnd{});
  EXPECT_THROW(writer.sample(200, {1.0, 2.0}), CheckFailure);   // finished
}

// The crash-consistency sweep: chop the file at every byte offset and
// require the reader to either reject it as a non-archive (chop inside
// magic/header) or recover exactly the complete-record prefix.
TEST(TrajectoryTest, TruncatedFilesRecoverEveryCompleteBlock) {
  const std::string path = tmp_path("fuzz_full.pptraj");
  TrajectoryWriter::Options options;
  options.block_samples = 3;
  {
    TrajectoryWriter writer(path, test_header(), options);
    for (int j = 0; j < 12; ++j) {
      writer.sample(j * 50, {static_cast<double>(100 + j), j * 0.25});
      if (j == 5) {
        EngineCheckpoint cp;
        cp.counts = {10, 20, 30, 40, 900};
        cp.rng_state = {5, 6, 7, 8};
        cp.interactions = 275;
        writer.checkpoint(cp);
      }
    }
    writer.finish(TrajectoryEnd{.stabilized = true,
                                .interactions = 600,
                                .consensus = std::nullopt});
  }
  const std::vector<std::uint8_t> full = read_file(path);
  TrajectoryReader whole(path);
  const std::size_t all_samples = whole.total_samples();
  ASSERT_FALSE(whole.torn_tail());

  const std::string chopped = tmp_path("fuzz_chop.pptraj");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_file(chopped, full.data(), cut);
    TrajectoryReader* reader = nullptr;
    try {
      reader = new TrajectoryReader(chopped);
    } catch (const CheckFailure&) {
      // Legal only while the header itself is incomplete.
      EXPECT_EQ(reader, nullptr);
      continue;
    }
    // Whatever survived must be internally consistent and decodable.
    EXPECT_LE(reader->total_samples(), all_samples);
    for (std::size_t b = 0; b < reader->num_blocks(); ++b) {
      const TrajectoryReader::BlockData data = reader->decode_block(b);
      EXPECT_EQ(data.interactions.size(), reader->block(b).num_samples);
    }
    if (cut < full.size()) {
      EXPECT_TRUE(reader->torn_tail() || !reader->finished());
    } else {
      EXPECT_FALSE(reader->torn_tail());
      EXPECT_TRUE(reader->finished());
    }
    delete reader;
  }
}

TEST(TrajectoryTest, CorruptedRecordStopsParseAtTear) {
  const std::string path = tmp_path("bitrot.pptraj");
  {
    TrajectoryWriter::Options options;
    options.block_samples = 2;
    TrajectoryWriter writer(path, test_header(), options);
    for (int j = 0; j < 8; ++j) writer.sample(j * 10, {1.0 * j, 2.0 * j});
    writer.finish(TrajectoryEnd{});
  }
  std::vector<std::uint8_t> bytes = read_file(path);
  TrajectoryReader clean(path);
  ASSERT_EQ(clean.num_blocks(), 4u);
  // Flip a byte in the middle of the file: whatever record it lands in, the
  // checksum mismatch must stop the parse at that record while everything
  // before it stays readable.
  bytes[bytes.size() / 2] ^= 0xFF;
  write_file(path, bytes.data(), bytes.size());
  TrajectoryReader torn(path);
  EXPECT_TRUE(torn.torn_tail());
  EXPECT_LT(torn.num_blocks(), 4u);
  for (std::size_t b = 0; b < torn.num_blocks(); ++b) {
    EXPECT_NO_THROW(torn.decode_block(b));
  }
}

TEST(TrajectoryTest, TrailingGarbageAfterEndIsTorn) {
  const std::string path = tmp_path("trailing.pptraj");
  {
    TrajectoryWriter writer(path, test_header());
    writer.sample(0, {1.0, 2.0});
    writer.finish(TrajectoryEnd{});
  }
  std::vector<std::uint8_t> bytes = read_file(path);
  const std::size_t clean_size = bytes.size();
  bytes.push_back(0x42);
  write_file(path, bytes.data(), bytes.size());
  TrajectoryReader reader(path);
  EXPECT_TRUE(reader.finished());
  EXPECT_TRUE(reader.torn_tail());
  EXPECT_EQ(reader.torn_offset(), clean_size);
}

TEST(TrajectoryTest, SpecHashTracksTheSpec) {
  const TrajectoryHeader a = test_header();
  TrajectoryHeader b = test_header();
  EXPECT_EQ(a.compute_spec_hash(), b.compute_spec_hash());
  b.seed = 54321;
  EXPECT_NE(a.compute_spec_hash(), b.compute_spec_hash());
  TrajectoryHeader c = test_header();
  c.tau_epsilon = 0.049999999;
  EXPECT_NE(a.compute_spec_hash(), c.compute_spec_hash());
}

TEST(TrajectoryTest, ResumeReopensAtLastCheckpoint) {
  const std::string path = tmp_path("resume.pptraj");
  TrajectoryWriter::Options options;
  options.block_samples = 2;
  {
    TrajectoryWriter writer(path, test_header(), options);
    for (int j = 0; j < 4; ++j) writer.sample(j * 100, {1.0 * j, 0.0});
    EngineCheckpoint cp;
    cp.counts = {1, 2, 3, 4, 990};
    cp.rng_state = {9, 9, 9, 9};
    cp.interactions = 350;
    writer.checkpoint(cp);
    writer.sample(400, {4.0, 0.0});
    // Writer destroyed without finish(): the pending sample at 400 is
    // dropped, exactly as a killed process would drop it.
  }
  TrajectoryWriter::Resumed resumed = TrajectoryWriter::resume(path, options);
  ASSERT_FALSE(resumed.finished);
  ASSERT_TRUE(resumed.writer != nullptr);
  ASSERT_TRUE(resumed.checkpoint.has_value());
  EXPECT_EQ(resumed.checkpoint->interactions, 350);
  resumed.writer->sample(400, {4.0, 0.0});
  resumed.writer->sample(500, {5.0, 0.0});
  resumed.writer->finish(TrajectoryEnd{.stabilized = true,
                                       .interactions = 500,
                                       .consensus = std::nullopt});

  TrajectoryReader reader(path);
  EXPECT_FALSE(reader.torn_tail());
  ASSERT_TRUE(reader.finished());
  EXPECT_EQ(reader.total_samples(), 6u);
  ASSERT_EQ(reader.checkpoints().size(), 1u);

  // A finished archive has nothing to resume.
  TrajectoryWriter::Resumed again = TrajectoryWriter::resume(path, options);
  EXPECT_TRUE(again.finished);
  EXPECT_TRUE(again.writer == nullptr);
}

TEST(TrajectoryTest, ResumeWithoutCheckpointRestarts) {
  const std::string path = tmp_path("resume_scratch.pptraj");
  {
    TrajectoryWriter writer(path, test_header());
    writer.sample(0, {1.0, 2.0});
    // No checkpoint, no finish: only the header record is on disk (the
    // pending block dies with the writer).
  }
  TrajectoryWriter::Resumed resumed = TrajectoryWriter::resume(path);
  ASSERT_FALSE(resumed.finished);
  ASSERT_TRUE(resumed.writer != nullptr);
  EXPECT_FALSE(resumed.checkpoint.has_value());
  resumed.writer->sample(0, {1.0, 2.0});
  resumed.writer->finish(TrajectoryEnd{});
  TrajectoryReader reader(path);
  EXPECT_TRUE(reader.finished());
  EXPECT_EQ(reader.total_samples(), 1u);
}

}  // namespace
}  // namespace ppsim::io
