// Tests for trace tables and the .atl binary columnar trace format
// (round-trips, truncation vs corruption, bounded reader residency).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "atlarge/trace/atl.hpp"
#include "atlarge/trace/record.hpp"

namespace trace = atlarge::trace;

namespace {

std::vector<trace::Column> job_schema() {
  return {{"job_id", trace::FieldType::kInt},
          {"runtime", trace::FieldType::kReal},
          {"user", trace::FieldType::kText}};
}

}  // namespace

TEST(Table, RequiresNonEmptySchema) {
  EXPECT_THROW(trace::Table({}), std::invalid_argument);
}

TEST(Table, AppendAndRead) {
  trace::Table t(job_schema());
  t.append({std::int64_t{1}, 2.5, std::string("alice")});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(t.row(0)[0]), 1);
  EXPECT_DOUBLE_EQ(std::get<double>(t.row(0)[1]), 2.5);
  EXPECT_EQ(std::get<std::string>(t.row(0)[2]), "alice");
}

TEST(Table, AppendRejectsArityMismatch) {
  trace::Table t(job_schema());
  EXPECT_THROW(t.append({std::int64_t{1}, 2.5}), std::invalid_argument);
}

TEST(Table, AppendRejectsTypeMismatch) {
  trace::Table t(job_schema());
  EXPECT_THROW(t.append({2.5, std::int64_t{1}, std::string("x")}),
               std::invalid_argument);
}

TEST(Table, ColumnIndexLookup) {
  trace::Table t(job_schema());
  EXPECT_EQ(t.column_index("runtime"), 1u);
  EXPECT_EQ(t.column_index("nope"), trace::Table::npos);
}

TEST(Table, NumericColumnWidensInts) {
  trace::Table t(job_schema());
  t.append({std::int64_t{4}, 1.0, std::string("a")});
  t.append({std::int64_t{9}, 2.0, std::string("b")});
  const auto col = t.numeric_column("job_id");
  EXPECT_EQ(col, (std::vector<double>{4.0, 9.0}));
}

TEST(Table, NumericColumnRejectsText) {
  trace::Table t(job_schema());
  EXPECT_THROW(t.numeric_column("user"), std::invalid_argument);
  EXPECT_THROW(t.numeric_column("missing"), std::invalid_argument);
}

TEST(Table, CsvRoundTrip) {
  trace::Table t(job_schema());
  t.append({std::int64_t{1}, 3.14159, std::string("plain")});
  t.append({std::int64_t{2}, -0.5, std::string("with,comma")});
  t.append({std::int64_t{3}, 1e-10, std::string("with\"quote")});
  std::stringstream buffer;
  t.write_csv(buffer);
  const auto back = trace::Table::read_csv(buffer, job_schema());
  ASSERT_EQ(back.rows(), 3u);
  EXPECT_EQ(std::get<std::string>(back.row(1)[2]), "with,comma");
  EXPECT_EQ(std::get<std::string>(back.row(2)[2]), "with\"quote");
  EXPECT_DOUBLE_EQ(std::get<double>(back.row(0)[1]), 3.14159);
  EXPECT_DOUBLE_EQ(std::get<double>(back.row(2)[1]), 1e-10);
}

TEST(Table, ReadCsvRejectsHeaderMismatch) {
  std::stringstream buffer("a,b\n1,2\n");
  EXPECT_THROW(trace::Table::read_csv(buffer, job_schema()),
               std::runtime_error);
}

TEST(Table, ReadCsvRejectsBadCells) {
  std::stringstream buffer("job_id,runtime,user\nnot_an_int,1.0,x\n");
  EXPECT_THROW(trace::Table::read_csv(buffer, job_schema()),
               std::runtime_error);
}

TEST(Table, ReadCsvSkipsBlankLines) {
  std::stringstream buffer("job_id,runtime,user\n1,1.0,x\n\n2,2.0,y\n");
  const auto t = trace::Table::read_csv(buffer, job_schema());
  EXPECT_EQ(t.rows(), 2u);
}

// ------------------------------------------------------- CSV robustness --

TEST(Table, ReadCsvStripsWindowsLineEndings) {
  // CRLF fixture: a trace exported on Windows must parse identically to
  // its LF twin — including the last cell of each row, which otherwise
  // grows a trailing '\r'.
  std::stringstream buffer(
      "job_id,runtime,user\r\n1,1.5,alice\r\n2,2.5,bob\r\n");
  const auto t = trace::Table::read_csv(buffer, job_schema());
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(std::get<std::string>(t.row(0)[2]), "alice");
  EXPECT_EQ(std::get<std::string>(t.row(1)[2]), "bob");
  EXPECT_DOUBLE_EQ(std::get<double>(t.row(1)[1]), 2.5);
}

TEST(Table, ReadCsvStripsCrOnBlankAndHeaderLines) {
  std::stringstream buffer("job_id,runtime,user\r\n\r\n3,0.25,carol\r\n");
  const auto t = trace::Table::read_csv(buffer, job_schema());
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(t.row(0)[0]), 3);
}

TEST(Table, CsvRealRoundTripIsExact) {
  // write_csv emits shortest-round-trip reals via std::to_chars and
  // read_csv parses with std::from_chars: locale-independent and exact
  // for every finite double, including the nasty corners.
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0 / 3.0,
      -1e308,
      1e308,
      5e-324,                                     // min subnormal
      2.2250738585072014e-308,                    // min normal
      0.1,
      -123456789.123456789,
      6.02214076e23,
  };
  trace::Table t({{"x", trace::FieldType::kReal}});
  for (const double v : values) t.append({v});
  std::stringstream buffer;
  t.write_csv(buffer);
  const auto back =
      trace::Table::read_csv(buffer, {{"x", trace::FieldType::kReal}});
  ASSERT_EQ(back.rows(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double got = std::get<double>(back.row(i)[0]);
    // Bit-exact, not just value-equal: -0.0 must survive.
    std::uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &values[i], sizeof want_bits);
    std::memcpy(&got_bits, &got, sizeof got_bits);
    EXPECT_EQ(got_bits, want_bits) << "row " << i << " value " << values[i];
  }
}

// ------------------------------------------------------------ .atl format --

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
  const std::string path = atl_temp_path("roundtrip");
  trace::Table t(job_schema());
  t.append({std::int64_t{42}, 3.14159, std::string("alice")});
  t.append({std::int64_t{-7}, -0.0, std::string("")});
  t.append({std::numeric_limits<std::int64_t>::max(), 1e308,
            std::string("utf8 \xC3\xA9\xC3\xA8")});
  t.append({std::numeric_limits<std::int64_t>::min(), 5e-324,
            std::string("comma,quote\"newline\n")});
  trace::write_atl(t, path);
  // The int column's deltas span the full int64 range; pin the on-disk
  // bytes (size and CRC of the whole file) so the encoding stays fixed.
  const std::string bytes = slurp_file(path);
  EXPECT_EQ(bytes.size(), 141u);
  EXPECT_EQ(trace::crc32(bytes.data(), bytes.size()), 0x56217B21u);
  const auto back = trace::read_atl(path);
  ASSERT_EQ(back.rows(), t.rows());
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_EQ(back.row(r), t.row(r)) << "row " << r;
  }
  std::remove(path.c_str());
}

TEST(Atl, PropertyRandomTablesRoundTrip) {
  // Property test: random typed tables of random shapes survive the
  // write->read cycle exactly, across chunk boundaries (chunk_rows = 7
  // forces many small chunks).
  std::mt19937_64 rng(20260809);
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<trace::Column> schema;
    const std::size_t cols = 1 + rng() % 4;
    for (std::size_t c = 0; c < cols; ++c) {
      schema.push_back({"c" + std::to_string(c),
                        static_cast<trace::FieldType>(rng() % 3)});
    }
    trace::Table t(schema);
    const std::size_t rows = rng() % 40;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<trace::Field> row;
      for (const auto& col : schema) {
        switch (col.type) {
          case trace::FieldType::kInt:
            row.emplace_back(static_cast<std::int64_t>(rng()));
            break;
          case trace::FieldType::kReal: {
            // Random finite double from random bits.
            double d = 0.0;
            std::uint64_t bits;
            do {
              bits = rng();
              std::memcpy(&d, &bits, sizeof d);
            } while (!std::isfinite(d));
            row.emplace_back(d);
            break;
          }
          case trace::FieldType::kText:
            row.emplace_back(std::string(rng() % 17, 'a' + rng() % 26));
            break;
        }
      }
      t.append(row);
    }
    const std::string path = atl_temp_path("property");
    trace::WriterOptions options;
    options.chunk_rows = 7;
    trace::write_atl(t, path, options);
    const auto back = trace::read_atl(path);
    ASSERT_EQ(back.rows(), t.rows()) << "iter " << iter;
    for (std::size_t r = 0; r < t.rows(); ++r)
      EXPECT_EQ(back.row(r), t.row(r)) << "iter " << iter << " row " << r;
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

TEST(Atl, TruncatedFileThrowsByDefaultAndStopsCleanlyWhenAllowed) {
  const std::string path = atl_temp_path("truncated");
  trace::Table t(job_schema());
  for (int i = 0; i < 50; ++i)
    t.append({std::int64_t{i}, 0.5 * i, std::string("u") + std::to_string(i)});
  trace::WriterOptions options;
  options.chunk_rows = 10;  // 5 chunks
  trace::write_atl(t, path, options);

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
    trace::ReaderOptions ro;
    ro.allow_partial_tail = true;
    trace::TraceReader reader(path, ro);
    std::size_t rows = 0;
    while (reader.next_chunk()) rows += reader.rows();
    EXPECT_EQ(rows, 40u);  // the 4 complete chunks
    EXPECT_TRUE(reader.truncated());
  }
  std::remove(path.c_str());
}

TEST(Atl, CorruptedChunkCrcThrowsEvenWithPartialTailAllowed) {
  const std::string path = atl_temp_path("crc");
  trace::Table t(job_schema());
  for (int i = 0; i < 30; ++i)
    t.append({std::int64_t{i}, 1.0 * i, std::string("x")});
  trace::WriterOptions options;
  options.chunk_rows = 10;
  trace::write_atl(t, path, options);

  // Flip one payload byte in the middle of the file: parseable but wrong.
  std::string bytes = slurp_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit_file(path, bytes);

  trace::ReaderOptions ro;
  ro.allow_partial_tail = true;  // corruption is NOT a crash tail
  trace::TraceReader reader(path, ro);
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
  trace::Table t(job_schema());
  for (int i = 0; i < 25; ++i)
    t.append({std::int64_t{i}, 2.0 * i, std::string("y")});
  trace::WriterOptions options;
  options.chunk_rows = 10;
  trace::write_atl(t, path, options);

  trace::ReaderOptions ro;
  ro.allow_partial_tail = true;
  trace::TraceReader reader(path, ro);
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
  trace::Table t(job_schema());
  for (int i = 0; i < 4'000; ++i)
    t.append({std::int64_t{i}, 0.1 * i, std::string("user")});
  const std::string big_path = atl_temp_path("bigchunk");
  const std::string small_path = atl_temp_path("smallchunk");
  trace::write_atl(t, big_path, {.chunk_rows = 100'000});
  trace::write_atl(t, small_path, {.chunk_rows = 64});

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
    trace::TraceWriter writer(path, job_schema());
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
