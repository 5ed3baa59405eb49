#pragma once
// .atl: the compact binary columnar trace format of the workload plane.
//
// Layout (all integers little-endian):
//
//   file   := header chunk*
//   header := magic "ATLTRC01" (8 bytes)
//           | u32 version (= 1)
//           | u16 column count
//           | column*            -- u8 type (0 int, 1 real, 2 text)
//                                   u16 name length, name bytes
//   chunk  := u32 chunk magic (0x43BA715E)
//           | u32 row count (> 0)
//           | colblock[ncols]    -- u8 encoding
//                                   varint payload length, payload bytes
//           | u32 crc32          -- IEEE CRC-32 over row count + colblocks
//
// Column encodings:
//   0  int:  zigzag(delta) varints, deltas taken modulo 2^64 — the first
//            value is a delta from 0, so sorted id/timestamp columns
//            shrink to ~1-2 bytes per row;
//   1  real: raw IEEE-754 binary64, little-endian (exact round-trip);
//   2  text: varint byte length + UTF-8 bytes per cell.
//
// Streaming contract: the writer buffers one chunk of rows and flushes it
// as a self-contained, CRC-protected block; the reader holds exactly one
// decoded chunk at a time, so replaying a multi-GB trace keeps resident
// memory bounded by the chunk size, never the file size. A file whose last
// chunk was cut off mid-write (a crash) can be read with
// ReaderOptions::allow_partial_tail, which stops cleanly at the last
// complete chunk — the same tail-repair discipline as the campaign JSONL
// store. A CRC mismatch on a fully present chunk is corruption, not a
// crash tail, and always fails with a clear error.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "atlarge/trace/event.hpp"
#include "atlarge/trace/record.hpp"

namespace atlarge::obs {
class Registry;
}

namespace atlarge::trace {

/// Format constants shared by writer, reader, and the robustness tests.
inline constexpr char kAtlMagic[8] = {'A', 'T', 'L', 'T', 'R', 'C', '0', '1'};
inline constexpr std::uint32_t kAtlVersion = 1;
inline constexpr std::uint32_t kAtlChunkMagic = 0x43BA715Eu;

/// IEEE CRC-32 (reflected polynomial 0xEDB88320) over `data`.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// LEB128 unsigned varint append / zigzag signed mapping (exposed for the
/// property tests; the writer and reader use them internally).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint64_t zigzag_encode(std::int64_t v) noexcept;
std::int64_t zigzag_decode(std::uint64_t v) noexcept;

struct WriterOptions {
  /// Rows buffered per chunk. The reader's resident memory is proportional
  /// to this, so it is the memory/throughput dial of the whole plane.
  std::size_t chunk_rows = 1 << 16;
};

/// Streaming columnar writer. Rows are staged column-wise and flushed as
/// self-contained chunks, so writing never holds more than one chunk.
class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header immediately.
  /// Throws std::runtime_error when the file cannot be opened.
  TraceWriter(const std::string& path, std::vector<Column> schema,
              WriterOptions options = {});
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  const std::vector<Column>& schema() const noexcept { return schema_; }

  /// Appends one row; throws std::invalid_argument on arity or type
  /// mismatch (same contract as Table::append).
  void append_row(const std::vector<Field>& row);

  /// Fast path for the canonical event schema; throws std::logic_error
  /// when the writer's schema is not event_schema().
  void append(const Event& event);

  /// Flushes the staged rows as one chunk (no-op when empty).
  void flush_chunk();

  /// Flushes and closes the file; further appends throw. Called by the
  /// destructor, but call it explicitly to observe write errors.
  void finish();

  std::uint64_t rows_written() const noexcept { return rows_written_; }
  std::uint64_t chunks_written() const noexcept { return chunks_written_; }
  /// Bytes emitted so far, header included (staged rows excluded).
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  void write_raw(const void* data, std::size_t size);

  std::vector<Column> schema_;
  WriterOptions options_;
  std::ofstream out_;
  bool finished_ = false;
  bool is_event_schema_ = false;
  std::size_t staged_rows_ = 0;
  // Column-wise staging buffers, indexed by column.
  std::vector<std::vector<std::int64_t>> int_cols_;
  std::vector<std::vector<double>> real_cols_;
  std::vector<std::vector<std::string>> text_cols_;
  std::vector<std::uint8_t> scratch_;  // encoded chunk, reused across flushes
  std::uint64_t rows_written_ = 0;
  std::uint64_t chunks_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

struct ReaderOptions {
  /// Tolerate a truncated final chunk (crash tail): reading stops cleanly
  /// at the last complete chunk and truncated() reports true. With the
  /// default false, a truncated file throws std::runtime_error.
  bool allow_partial_tail = false;
  /// Optional metrics registry (not owned, may be null). The reader keeps
  /// trace.reader_chunks / trace.reader_rows counters and a
  /// trace.reader_resident_bytes gauge (high-water mark of buffer + decoded
  /// columns) — the counter the bounded-memory replay contract is asserted
  /// against.
  obs::Registry* obs = nullptr;
};

/// Chunk-at-a-time columnar reader. Exactly one chunk is decoded and
/// resident at any moment; text cells are string_views into the chunk
/// buffer (zero-copy), valid until the next next_chunk() call.
class TraceReader {
 public:
  /// Opens and validates the header. Throws std::runtime_error on missing
  /// files, bad magic, or unsupported versions.
  explicit TraceReader(const std::string& path, ReaderOptions options = {});

  const std::vector<Column>& schema() const noexcept { return schema_; }

  /// Decodes the next chunk; returns false at (clean) end of file. Throws
  /// std::runtime_error on CRC mismatch or malformed chunks, and on
  /// truncation unless allow_partial_tail is set.
  bool next_chunk();

  /// Rows in the current chunk (0 before the first next_chunk()).
  std::size_t rows() const noexcept { return chunk_rows_; }

  /// Column accessors for the current chunk. `row` < rows(); `col` must
  /// have the matching type (checked, throws std::invalid_argument).
  std::int64_t int_at(std::size_t col, std::size_t row) const;
  double real_at(std::size_t col, std::size_t row) const;
  std::string_view text_at(std::size_t col, std::size_t row) const;

  /// Whole decoded int column of the current chunk (for bulk consumers).
  const std::vector<std::int64_t>& int_column(std::size_t col) const;
  const std::vector<double>& real_column(std::size_t col) const;

  /// True when a truncated tail was tolerated (allow_partial_tail only).
  bool truncated() const noexcept { return truncated_; }

  std::uint64_t rows_read() const noexcept { return rows_read_; }
  std::uint64_t chunks_read() const noexcept { return chunks_read_; }
  /// High-water mark of resident decode memory (chunk buffer + decoded
  /// columns), in bytes — mirrors the trace.reader_resident_bytes gauge.
  std::uint64_t peak_resident_bytes() const noexcept {
    return peak_resident_;
  }

 private:
  void account_residency();

  std::ifstream in_;
  ReaderOptions options_;
  std::vector<Column> schema_;
  std::vector<std::uint8_t> buffer_;  // raw chunk bytes, reused
  std::vector<std::vector<std::int64_t>> int_cols_;
  std::vector<std::vector<double>> real_cols_;
  // Text columns decode to (offset, length) pairs into buffer_.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> text_cols_;
  std::size_t chunk_rows_ = 0;
  bool truncated_ = false;
  std::uint64_t rows_read_ = 0;
  std::uint64_t chunks_read_ = 0;
  std::uint64_t peak_resident_ = 0;
};

/// Pull-stream facade over a TraceReader whose schema is event_schema()
/// (validated in the constructor; throws std::runtime_error otherwise).
/// This is how catalog replays drain .atl files with bounded memory.
class AtlEventStream final : public EventStream {
 public:
  explicit AtlEventStream(TraceReader& reader);

  bool next(Event& out) override;

 private:
  TraceReader* reader_;
  std::size_t row_ = 0;
};

/// Convenience: writes a whole Table as one .atl file (chunked per
/// options) / reads a whole .atl file back into a Table. The streaming
/// API above is the real interface; these serve the property tests and
/// small-table interop with the CSV paths.
void write_atl(const Table& table, const std::string& path,
               WriterOptions options = {});
Table read_atl(const std::string& path, ReaderOptions options = {});

}  // namespace atlarge::trace
