#pragma once
// .atl: the compact binary columnar trace format of the workload plane.
//
// A trace stores one record type, the five-int workload Event (event.hpp).
// Layout (all integers little-endian):
//
//   file   := header chunk*
//   header := magic "ATLTRC01" (8 bytes)
//           | u32 version (= 1)
//           | u16 column count (= 5)
//           | column[5]          -- u8 type (0 = int), u16 name length,
//                                   name bytes: t_us, entity, kind, size,
//                                   region, in that order
//   chunk  := u32 chunk magic (0x43BA715E)
//           | u32 row count (> 0)
//           | colblock[5]        -- u8 encoding (0 = int)
//                                   varint payload length, payload bytes
//           | u32 crc32          -- IEEE CRC-32 over row count + colblocks
//
// Every column is an int column: zigzag(delta) varints, deltas taken
// modulo 2^64 — the first value is a delta from 0, so sorted id/timestamp
// columns shrink to ~1-2 bytes per row. The header is fixed; the reader
// rejects any other column count, name or type tag.
//
// Streaming contract: the writer buffers one chunk of rows and flushes it
// as a self-contained, CRC-protected block; the reader holds exactly one
// decoded chunk at a time, so replaying a multi-GB trace keeps resident
// memory bounded by the chunk size, never the file size. A file whose last
// chunk was cut off mid-write (a crash) can be read with
// ReaderOptions::allow_partial_tail, which stops cleanly at the last
// complete chunk — the same tail-repair discipline as the campaign JSONL
// store. A CRC mismatch on a fully present chunk is corruption, not a
// crash tail, and always fails with a clear error. The reader never
// allocates more than the file holds: a length field pointing past the end
// of the file is a truncated chunk, not an allocation request.

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "atlarge/trace/event.hpp"

namespace atlarge::obs {
class Registry;
}

namespace atlarge::trace {

/// Format constants shared by writer, reader, and the robustness tests.
inline constexpr char kAtlMagic[8] = {'A', 'T', 'L', 'T', 'R', 'C', '0', '1'};
inline constexpr std::uint32_t kAtlVersion = 1;
inline constexpr std::uint32_t kAtlChunkMagic = 0x43BA715Eu;
/// Columns per record: t_us, entity, kind, size, region.
inline constexpr std::size_t kAtlColumns = 5;

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

/// Streaming event writer. Events are staged and flushed as self-contained
/// chunks, so writing never holds more than one chunk.
class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header immediately.
  /// Throws std::runtime_error when the file cannot be opened.
  explicit TraceWriter(const std::string& path, WriterOptions options = {});
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Stages one event; flushes a chunk every `chunk_rows` events. Throws
  /// std::logic_error after finish().
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

  WriterOptions options_;
  std::ofstream out_;
  bool finished_ = false;
  std::vector<Event> staged_;
  std::vector<std::uint8_t> payload_;  // one encoded column, reused
  std::vector<std::uint8_t> frame_;    // one encoded chunk, reused
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

/// Chunk-at-a-time event reader. Exactly one chunk is decoded and resident
/// at any moment.
class TraceReader {
 public:
  /// Opens and validates the header. Throws std::runtime_error on missing
  /// files, bad magic, unsupported versions, and any header other than the
  /// five-column event header.
  explicit TraceReader(const std::string& path, ReaderOptions options = {});

  /// Decodes the next chunk; returns false at (clean) end of file. Throws
  /// std::runtime_error on CRC mismatch or malformed chunks, and on
  /// truncation unless allow_partial_tail is set.
  bool next_chunk();

  /// Rows in the current chunk (0 before the first next_chunk()).
  std::size_t rows() const noexcept { return chunk_rows_; }

  /// Whole decoded column `col` (< kAtlColumns, in header order) of the
  /// current chunk.
  const std::vector<std::int64_t>& int_column(std::size_t col) const {
    return cols_.at(col);
  }

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
  bool read_exact(void* data, std::size_t size);
  void account_residency();

  std::ifstream in_;
  ReaderOptions options_;
  std::uint64_t unread_ = 0;          // file bytes not yet consumed
  std::vector<std::uint8_t> buffer_;  // raw chunk bytes, reused
  std::array<std::vector<std::int64_t>, kAtlColumns> cols_;
  std::size_t chunk_rows_ = 0;
  bool truncated_ = false;
  std::uint64_t rows_read_ = 0;
  std::uint64_t chunks_read_ = 0;
  std::uint64_t peak_resident_ = 0;
};

/// Pull-stream facade over a TraceReader. This is how catalog replays
/// drain .atl files with bounded memory.
class AtlEventStream final : public EventStream {
 public:
  explicit AtlEventStream(TraceReader& reader) : reader_(&reader) {}

  bool next(Event& out) override;

 private:
  TraceReader* reader_;
  std::size_t row_ = 0;
};

}  // namespace atlarge::trace
