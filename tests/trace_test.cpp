// Tests for the .atl event trace format: round-trips, the fixed event
// header, truncation vs corruption, bounded reader residency, and a seeded
// mutation fuzz of the reader.

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/trace/atl.hpp"

namespace trace = atlarge::trace;

namespace {

std::string atl_temp_path(const char* tag) {
  return ::testing::TempDir() + "trace_test_" + tag + ".atl";
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

auto fields(const trace::Event& e) {
  return std::make_tuple(e.t_us, e.entity, e.kind, e.size, e.region);
}

/// Seeded event vector with nondecreasing timestamps.
std::vector<trace::Event> random_events(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<trace::Event> events(n);
  std::int64_t t = 0;
  for (auto& e : events) {
    t += static_cast<std::int64_t>(rng() % 5'000);
    e.t_us = t;
    e.entity = static_cast<std::int64_t>(rng() % 1'000);
    e.kind = static_cast<std::int64_t>(rng() % 3);
    e.size = static_cast<std::int64_t>(rng() % 100'000);
    e.region = static_cast<std::int64_t>(rng() % 4);
  }
  return events;
}

/// Writes `events` to `path`; returns the offset where each chunk starts,
/// followed by the file size (so chunk k spans [b[k], b[k + 1])).
std::vector<std::size_t> write_events(const std::string& path,
                                      const std::vector<trace::Event>& events,
                                      std::size_t chunk_rows = 1 << 16) {
  trace::TraceWriter writer(path, {.chunk_rows = chunk_rows});
  std::vector<std::size_t> bounds{writer.bytes_written()};
  for (const auto& e : events) {
    writer.append(e);
    if (writer.bytes_written() != bounds.back())
      bounds.push_back(writer.bytes_written());
  }
  writer.finish();
  if (writer.bytes_written() != bounds.back())
    bounds.push_back(writer.bytes_written());
  return bounds;
}

std::vector<trace::Event> read_events(const std::string& path) {
  trace::TraceReader reader(path);
  trace::AtlEventStream stream(reader);
  std::vector<trace::Event> out;
  trace::Event e;
  while (stream.next(e)) out.push_back(e);
  return out;
}

/// Recomputes the CRC of the chunk spanning [begin, end) of `bytes`: the
/// CRC covers everything between the chunk magic and the CRC itself.
void reseal_chunk(std::string& bytes, std::size_t begin, std::size_t end) {
  const std::uint32_t crc =
      trace::crc32(bytes.data() + begin + 4, end - begin - 8);
  for (int i = 0; i < 4; ++i)
    bytes[end - 4 + i] = static_cast<char>(crc >> (8 * i));
}

/// Peak resident set size of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace

TEST(Atl, ZigzagRoundTripsExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(trace::zigzag_decode(trace::zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the property delta coding needs).
  EXPECT_EQ(trace::zigzag_encode(0), 0u);
  EXPECT_EQ(trace::zigzag_encode(-1), 1u);
  EXPECT_EQ(trace::zigzag_encode(1), 2u);
}

TEST(Atl, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(trace::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(trace::crc32(s, 0), 0u);
}

TEST(Atl, VarintEncodesLeb128) {
  std::vector<std::uint8_t> out;
  trace::put_varint(out, 0);
  trace::put_varint(out, 127);
  trace::put_varint(out, 128);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0x00, 0x7F, 0x80, 0x01}));
}

TEST(Atl, TableRoundTripsAllTypes) {
  // Every column cycles through 42, -7, INT64_MAX and INT64_MIN, so its
  // deltas span the full int64 range (they wrap modulo 2^64).
  const std::int64_t values[4] = {42, -7,
                                  std::numeric_limits<std::int64_t>::max(),
                                  std::numeric_limits<std::int64_t>::min()};
  std::vector<trace::Event> events(4);
  for (std::size_t r = 0; r < events.size(); ++r) {
    events[r].t_us = values[r % 4];
    events[r].entity = values[(r + 1) % 4];
    events[r].kind = values[(r + 2) % 4];
    events[r].size = values[(r + 3) % 4];
    events[r].region = values[r % 4];
  }
  const std::string path = atl_temp_path("roundtrip");
  write_events(path, events);
  // Pin the on-disk bytes (size and CRC of the whole file) so the encoding
  // stays fixed.
  const std::string bytes = slurp_file(path);
  EXPECT_EQ(bytes.size(), 176u);
  EXPECT_EQ(trace::crc32(bytes.data(), bytes.size()), 0x2AF7D7B9u);
  const auto back = read_events(path);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t r = 0; r < events.size(); ++r)
    EXPECT_EQ(fields(back[r]), fields(events[r])) << "row " << r;
  std::remove(path.c_str());
}

TEST(Atl, PropertyRandomTablesRoundTrip) {
  // Property test: random event vectors of random lengths, with arbitrary
  // 64-bit values in every column, survive the write->read cycle exactly
  // across chunk boundaries (chunk_rows = 7 forces many small chunks).
  std::mt19937_64 rng(20260809);
  const auto any = [&] { return static_cast<std::int64_t>(rng()); };
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<trace::Event> events(rng() % 40);
    for (auto& e : events) {
      e.t_us = any();
      e.entity = any();
      e.kind = any();
      e.size = any();
      e.region = any();
    }
    const std::string path = atl_temp_path("property");
    write_events(path, events, 7);
    const auto back = read_events(path);
    ASSERT_EQ(back.size(), events.size()) << "iter " << iter;
    for (std::size_t r = 0; r < events.size(); ++r)
      EXPECT_EQ(fields(back[r]), fields(events[r]))
          << "iter " << iter << " row " << r;
    std::remove(path.c_str());
  }
}

TEST(Atl, RejectsBadMagicAndVersion) {
  const std::string path = atl_temp_path("magic");
  spit_file(path, "NOTATRACEFILE....");
  EXPECT_THROW(trace::TraceReader reader(path), std::runtime_error);
  // Valid magic, unsupported version.
  std::string bytes(trace::kAtlMagic, sizeof trace::kAtlMagic);
  bytes += std::string("\x63\x00\x00\x00\x00\x00", 6);  // version 99, 0 cols
  spit_file(path, bytes);
  EXPECT_THROW(trace::TraceReader reader(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Atl, ReaderAcceptsOnlyTheEventHeader) {
  // Well-formed version-1 headers that declare any other column set — a
  // real or text column, a renamed column, one column too few or too many —
  // are not event traces and must not open.
  using Columns = std::vector<std::pair<char, std::string>>;  // type, name
  const auto header = [](const Columns& columns) {
    std::string h(trace::kAtlMagic, sizeof trace::kAtlMagic);
    h += std::string("\x01\x00\x00\x00", 4);
    h += static_cast<char>(columns.size());
    h += '\0';
    for (const auto& [type, name] : columns) {
      h += type;
      h += static_cast<char>(name.size());
      h += '\0';
      h += name;
    }
    return h;
  };
  const Columns event = {
      {0, "t_us"}, {0, "entity"}, {0, "kind"}, {0, "size"}, {0, "region"}};
  const std::string path = atl_temp_path("header");
  { trace::TraceWriter writer(path); }
  ASSERT_EQ(slurp_file(path), header(event));  // what the writer emits

  Columns real = event;
  real[3].first = 1;
  Columns text = event;
  text[1].first = 2;
  Columns renamed = event;
  renamed[4].second = "zone";
  Columns fewer = event;
  fewer.pop_back();
  Columns more = event;
  more.push_back({0, "extra"});
  for (const auto& [what, columns] :
       {std::pair{"real column", real}, std::pair{"text column", text},
        std::pair{"renamed column", renamed},
        std::pair{"four columns", fewer}, std::pair{"six columns", more}}) {
    spit_file(path, header(columns));
    EXPECT_THROW(trace::TraceReader reader(path), std::runtime_error) << what;
  }

  spit_file(path, header(event));
  trace::TraceReader reader(path);
  EXPECT_FALSE(reader.next_chunk());
  std::remove(path.c_str());
}

TEST(Atl, TruncatedFileThrowsByDefaultAndStopsCleanlyWhenAllowed) {
  const std::string path = atl_temp_path("truncated");
  write_events(path, random_events(50, 1), 10);  // 5 chunks

  // Cut the file mid-way through the last chunk: a crash tail.
  const std::string bytes = slurp_file(path);
  spit_file(path, bytes.substr(0, bytes.size() - 11));

  {
    trace::TraceReader reader(path);
    EXPECT_THROW(
        {
          while (reader.next_chunk()) {
          }
        },
        std::runtime_error);
  }
  {
    trace::TraceReader reader(path, {.allow_partial_tail = true});
    std::size_t rows = 0;
    while (reader.next_chunk()) rows += reader.rows();
    EXPECT_EQ(rows, 40u);  // the 4 complete chunks
    EXPECT_TRUE(reader.truncated());
  }
  std::remove(path.c_str());
}

TEST(Atl, CorruptedChunkCrcThrowsEvenWithPartialTailAllowed) {
  const std::string path = atl_temp_path("crc");
  write_events(path, random_events(30, 2), 10);

  // Flip one payload byte in the middle of the file: parseable but wrong.
  std::string bytes = slurp_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit_file(path, bytes);

  // Corruption is NOT a crash tail.
  trace::TraceReader reader(path, {.allow_partial_tail = true});
  EXPECT_THROW(
      {
        while (reader.next_chunk()) {
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(Atl, CleanTailPartialReadReportsNotTruncated) {
  // allow_partial_tail on an intact file must not change semantics.
  const std::string path = atl_temp_path("clean");
  write_events(path, random_events(25, 3), 10);

  trace::TraceReader reader(path, {.allow_partial_tail = true});
  std::size_t rows = 0;
  while (reader.next_chunk()) rows += reader.rows();
  EXPECT_EQ(rows, 25u);
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.chunks_read(), 3u);
  std::remove(path.c_str());
}

TEST(Atl, ReaderResidencyIsBoundedByChunkNotFile) {
  // Two files with identical content, one written as a single huge chunk
  // and one chunked small: the chunked reader's peak residency must track
  // the chunk size, not the file size.
  const auto events = random_events(4'000, 4);
  const std::string big_path = atl_temp_path("bigchunk");
  const std::string small_path = atl_temp_path("smallchunk");
  write_events(big_path, events, 100'000);
  write_events(small_path, events, 64);

  std::uint64_t peak_big = 0, peak_small = 0;
  for (const auto* p : {&big_path, &small_path}) {
    trace::TraceReader reader(*p);
    std::size_t rows = 0;
    while (reader.next_chunk()) rows += reader.rows();
    EXPECT_EQ(rows, 4'000u);
    (p == &big_path ? peak_big : peak_small) = reader.peak_resident_bytes();
  }
  EXPECT_LT(peak_small * 10, peak_big);
  std::remove(big_path.c_str());
  std::remove(small_path.c_str());
}

TEST(Atl, WriterCountsAndEmptyTableYieldZeroChunks) {
  const std::string path = atl_temp_path("counts");
  {
    trace::TraceWriter writer(path);
    writer.finish();
    EXPECT_EQ(writer.rows_written(), 0u);
    EXPECT_EQ(writer.chunks_written(), 0u);
    EXPECT_GT(writer.bytes_written(), 0u);  // header
  }
  trace::TraceReader reader(path);
  EXPECT_FALSE(reader.next_chunk());
  EXPECT_EQ(reader.rows_read(), 0u);
  std::remove(path.c_str());
}

TEST(Atl, PayloadLengthPastEndOfFileAllocatesNothing) {
  // A 300-event trace whose first column claims a ~2 GiB payload: the
  // length points past the end of the file, so the chunk is truncated and
  // the reader must say so without first allocating that payload.
  const std::string path = atl_temp_path("hugelength");
  const auto bounds = write_events(path, random_events(300, 5));
  std::string bytes = slurp_file(path);
  // Column 0's length varint follows the chunk magic, the row count and
  // the column's encoding byte.
  const std::size_t at = bounds[0] + 4 + 4 + 1;
  std::size_t end = at;
  while (static_cast<std::uint8_t>(bytes[end]) & 0x80u) ++end;
  std::vector<std::uint8_t> huge;
  trace::put_varint(huge, 0x7FFFFFF0u);
  bytes.replace(at, end + 1 - at, std::string(huge.begin(), huge.end()));
  spit_file(path, bytes);

  const long before = peak_rss_kib();
  {
    trace::TraceReader reader(path);
    EXPECT_THROW(reader.next_chunk(), std::runtime_error);
  }
  EXPECT_LT(peak_rss_kib() - before, 64 * 1024);
  {
    trace::TraceReader reader(path, {.allow_partial_tail = true});
    EXPECT_FALSE(reader.next_chunk());
    EXPECT_TRUE(reader.truncated());
    EXPECT_EQ(reader.rows_read(), 0u);
  }
  EXPECT_LT(peak_rss_kib() - before, 64 * 1024);
  std::remove(path.c_str());
}

TEST(Atl, RowCountBeyondColumnPayloadIsCorruption) {
  // A CRC-valid chunk claiming ~4G rows over a 300-row payload: every int
  // cell takes at least one byte, so the reader rejects the chunk before
  // reserving room for the claimed rows — in both modes, since a complete
  // chunk that lies about itself is corruption, not a crash tail.
  const std::string path = atl_temp_path("hugerows");
  const auto bounds = write_events(path, random_events(300, 6));
  std::string bytes = slurp_file(path);
  for (int i = 0; i < 4; ++i) bytes[bounds[0] + 4 + i] = '\xF0';
  reseal_chunk(bytes, bounds[0], bounds[1]);
  spit_file(path, bytes);

  const long before = peak_rss_kib();
  for (const bool partial : {false, true}) {
    trace::TraceReader reader(path, {.allow_partial_tail = partial});
    EXPECT_THROW(reader.next_chunk(), std::runtime_error);
  }
  EXPECT_LT(peak_rss_kib() - before, 64 * 1024);
  std::remove(path.c_str());
}

TEST(Atl, MutationFuzzYieldsEventsOrRuntimeError) {
  // Seeded mutation fuzz: 2,000 byte flips, truncations and chunk splices
  // of a three-chunk trace, each read to the end with allow_partial_tail
  // off and on. Every read must yield events or throw std::runtime_error;
  // any other exception, crash or sanitizer report fails the test, and so
  // does decode memory beyond a small multiple of the file's size.
  const std::string base_path = atl_temp_path("fuzzbase");
  const auto bounds = write_events(base_path, random_events(60, 7), 20);
  ASSERT_EQ(bounds.size(), 4u);  // header end + three chunk ends
  const std::string base = slurp_file(base_path);
  const std::string path = atl_temp_path("fuzz");

  struct Outcome {
    bool ok = false;
    bool truncated = false;
    std::vector<trace::Event> events;
  };
  const auto read = [&](std::size_t file_size, bool allow_partial_tail) {
    Outcome out;
    try {
      trace::TraceReader reader(path,
                                {.allow_partial_tail = allow_partial_tail});
      trace::AtlEventStream stream(reader);
      trace::Event e;
      while (stream.next(e)) out.events.push_back(e);
      EXPECT_EQ(out.events.size(), reader.rows_read());
      EXPECT_LE(reader.peak_resident_bytes(), 16 * file_size);
      out.ok = true;
      out.truncated = reader.truncated();
    } catch (const std::runtime_error&) {
    }
    return out;
  };

  std::mt19937_64 rng(20261017);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto chunk = [&](std::size_t k) {
    return base.substr(bounds[k], bounds[k + 1] - bounds[k]);
  };
  int yielded = 0, rejected = 0, salvaged = 0;
  for (int iter = 0; iter < 2'000; ++iter) {
    std::string bytes = base;
    switch (iter % 5) {
      case 0:  // flip bytes anywhere; the CRC usually catches them
        for (std::size_t n = 1 + pick(3); n > 0; --n)
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        break;
      case 1: {  // flip bytes inside one chunk and fix its CRC, so the
                 // damage reaches the row-count and column decoders
        const std::size_t k = pick(3);
        const std::size_t span = bounds[k + 1] - bounds[k] - 8;
        for (std::size_t n = 1 + pick(3); n > 0; --n)
          bytes[bounds[k] + 4 + pick(span)] ^=
              static_cast<char>(1 + pick(255));
        reseal_chunk(bytes, bounds[k], bounds[k + 1]);
        break;
      }
      case 2:  // truncate anywhere
        bytes.resize(pick(bytes.size()));
        break;
      case 3: {  // chunk splice: drop, duplicate, or move a whole chunk
        const std::size_t k = pick(3);
        const std::string c = chunk(k);
        switch (pick(3)) {
          case 0:
            bytes.erase(bounds[k], c.size());
            break;
          case 1:
            bytes.insert(bounds[pick(4)], c);
            break;
          default:
            bytes.erase(bounds[k], c.size());
            bytes.insert(pick(bytes.size() + 1), c);
            break;
        }
        break;
      }
      default: {  // splice a random byte range of the file elsewhere
        const std::size_t from = pick(base.size());
        const std::string piece = base.substr(from, 1 + pick(64));
        bytes.insert(pick(bytes.size() + 1), piece);
        break;
      }
    }
    spit_file(path, bytes);

    const Outcome strict = read(bytes.size(), false);
    const Outcome partial = read(bytes.size(), true);
    // The two modes differ only at a truncated tail.
    if (strict.ok) {
      ASSERT_TRUE(partial.ok) << "iter " << iter;
      EXPECT_FALSE(partial.truncated) << "iter " << iter;
      ASSERT_EQ(partial.events.size(), strict.events.size()) << "iter " << iter;
      for (std::size_t i = 0; i < strict.events.size(); ++i)
        EXPECT_EQ(fields(partial.events[i]), fields(strict.events[i]));
      ++yielded;
    } else if (partial.ok) {
      EXPECT_TRUE(partial.truncated) << "iter " << iter;
      ++salvaged;
    } else {
      ++rejected;
    }
  }
  // The mutator reaches all three outcomes.
  EXPECT_GT(yielded, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(salvaged, 0);
  std::remove(base_path.c_str());
  std::remove(path.c_str());
}
