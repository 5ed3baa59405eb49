#include "atlarge/trace/atl.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "atlarge/obs/metrics.hpp"

namespace atlarge::trace {
namespace {

// ---------------------------------------------------------------------------
// Little-endian scalar helpers (the format is LE regardless of host order).

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Column encoding ids, keyed by FieldType (see the header comment).
std::uint8_t encoding_for(FieldType t) noexcept {
  switch (t) {
    case FieldType::kInt:
      return 0;
    case FieldType::kReal:
      return 1;
    case FieldType::kText:
      return 2;
  }
  return 0xFF;
}

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

// Bounds-checked varint read out of an in-memory span; advances `pos`.
std::uint64_t get_varint(const std::uint8_t* data, std::size_t size,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= size)
      throw std::runtime_error("atl: truncated varint inside chunk");
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) return v;
  }
  throw std::runtime_error("atl: malformed varint (too long)");
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

std::vector<Column> event_schema() {
  return {{"t_us", FieldType::kInt},
          {"entity", FieldType::kInt},
          {"kind", FieldType::kInt},
          {"size", FieldType::kInt},
          {"region", FieldType::kInt}};
}

bool is_event_schema(const std::vector<Column>& schema) {
  const auto want = event_schema();
  if (schema.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (schema[i].name != want[i].name || schema[i].type != want[i].type)
      return false;
  return true;
}

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(const std::string& path, std::vector<Column> schema,
                         WriterOptions options)
    : schema_(std::move(schema)), options_(options) {
  if (schema_.empty())
    throw std::invalid_argument("TraceWriter: schema must be non-empty");
  if (schema_.size() > 0xFFFF)
    throw std::invalid_argument("TraceWriter: too many columns");
  if (options_.chunk_rows == 0)
    throw std::invalid_argument("TraceWriter: chunk_rows must be > 0");
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_)
    throw std::runtime_error("TraceWriter: cannot open " + path);
  is_event_schema_ = trace::is_event_schema(schema_);
  int_cols_.resize(schema_.size());
  real_cols_.resize(schema_.size());
  text_cols_.resize(schema_.size());

  std::vector<std::uint8_t> header;
  header.insert(header.end(), kAtlMagic, kAtlMagic + sizeof(kAtlMagic));
  put_u32(header, kAtlVersion);
  put_u16(header, static_cast<std::uint16_t>(schema_.size()));
  for (const Column& col : schema_) {
    if (col.name.size() > 0xFFFF)
      throw std::invalid_argument("TraceWriter: column name too long: " +
                                  col.name);
    header.push_back(encoding_for(col.type));
    put_u16(header, static_cast<std::uint16_t>(col.name.size()));
    header.insert(header.end(), col.name.begin(), col.name.end());
  }
  write_raw(header.data(), header.size());
}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; call finish() explicitly to observe
      // write errors.
    }
  }
}

void TraceWriter::write_raw(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) throw std::runtime_error("TraceWriter: write failed");
  bytes_written_ += size;
}

void TraceWriter::append_row(const std::vector<Field>& row) {
  if (finished_)
    throw std::logic_error("TraceWriter: append after finish()");
  if (row.size() != schema_.size())
    throw std::invalid_argument("TraceWriter: arity mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) {
    switch (schema_[i].type) {
      case FieldType::kInt:
        if (!std::holds_alternative<std::int64_t>(row[i]))
          throw std::invalid_argument(
              "TraceWriter: type mismatch in column " + schema_[i].name);
        int_cols_[i].push_back(std::get<std::int64_t>(row[i]));
        break;
      case FieldType::kReal:
        if (!std::holds_alternative<double>(row[i]))
          throw std::invalid_argument(
              "TraceWriter: type mismatch in column " + schema_[i].name);
        real_cols_[i].push_back(std::get<double>(row[i]));
        break;
      case FieldType::kText:
        if (!std::holds_alternative<std::string>(row[i]))
          throw std::invalid_argument(
              "TraceWriter: type mismatch in column " + schema_[i].name);
        text_cols_[i].push_back(std::get<std::string>(row[i]));
        break;
    }
  }
  if (++staged_rows_ >= options_.chunk_rows) flush_chunk();
}

void TraceWriter::append(const Event& event) {
  if (finished_)
    throw std::logic_error("TraceWriter: append after finish()");
  if (!is_event_schema_)
    throw std::logic_error(
        "TraceWriter: append(Event) requires the canonical event schema");
  int_cols_[0].push_back(event.t_us);
  int_cols_[1].push_back(event.entity);
  int_cols_[2].push_back(event.kind);
  int_cols_[3].push_back(event.size);
  int_cols_[4].push_back(event.region);
  if (++staged_rows_ >= options_.chunk_rows) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (staged_rows_ == 0) return;
  scratch_.clear();
  put_u32(scratch_, static_cast<std::uint32_t>(staged_rows_));
  std::vector<std::uint8_t> payload;
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    payload.clear();
    switch (schema_[c].type) {
      case FieldType::kInt: {
        // Deltas wrap modulo 2^64: unsigned arithmetic keeps extreme
        // neighbours (INT64_MAX after a negative) well defined, and the
        // bytes equal the two's-complement signed difference.
        std::uint64_t prev = 0;
        for (std::int64_t v : int_cols_[c]) {
          const auto bits = static_cast<std::uint64_t>(v);
          put_varint(payload,
                     zigzag_encode(static_cast<std::int64_t>(bits - prev)));
          prev = bits;
        }
        int_cols_[c].clear();
        break;
      }
      case FieldType::kReal: {
        for (double v : real_cols_[c]) {
          std::uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          put_u64(payload, bits);
        }
        real_cols_[c].clear();
        break;
      }
      case FieldType::kText: {
        for (const std::string& s : text_cols_[c]) {
          put_varint(payload, s.size());
          payload.insert(payload.end(), s.begin(), s.end());
        }
        text_cols_[c].clear();
        break;
      }
    }
    scratch_.push_back(encoding_for(schema_[c].type));
    put_varint(scratch_, payload.size());
    scratch_.insert(scratch_.end(), payload.begin(), payload.end());
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + scratch_.size() + 4);
  put_u32(frame, kAtlChunkMagic);
  frame.insert(frame.end(), scratch_.begin(), scratch_.end());
  put_u32(frame, crc32(scratch_.data(), scratch_.size()));
  write_raw(frame.data(), frame.size());
  rows_written_ += staged_rows_;
  ++chunks_written_;
  staged_rows_ = 0;
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  out_.close();
  if (out_.fail()) throw std::runtime_error("TraceWriter: close failed");
  finished_ = true;
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::string& path, ReaderOptions options)
    : options_(options) {
  in_.open(path, std::ios::binary);
  if (!in_) throw std::runtime_error("TraceReader: cannot open " + path);

  char magic[sizeof(kAtlMagic)];
  in_.read(magic, sizeof(magic));
  if (in_.gcount() != sizeof(magic) ||
      std::memcmp(magic, kAtlMagic, sizeof(magic)) != 0)
    throw std::runtime_error("TraceReader: not an .atl file: " + path);

  std::uint8_t fixed[6];
  in_.read(reinterpret_cast<char*>(fixed), sizeof(fixed));
  if (in_.gcount() != sizeof(fixed))
    throw std::runtime_error("TraceReader: truncated header: " + path);
  const std::uint32_t version = load_u32(fixed);
  if (version != kAtlVersion)
    throw std::runtime_error("TraceReader: unsupported .atl version " +
                             std::to_string(version));
  const std::size_t ncols = fixed[4] | (static_cast<std::size_t>(fixed[5]) << 8);
  if (ncols == 0)
    throw std::runtime_error("TraceReader: header declares zero columns");

  schema_.reserve(ncols);
  for (std::size_t i = 0; i < ncols; ++i) {
    std::uint8_t desc[3];
    in_.read(reinterpret_cast<char*>(desc), sizeof(desc));
    if (in_.gcount() != sizeof(desc))
      throw std::runtime_error("TraceReader: truncated column descriptor");
    Column col;
    switch (desc[0]) {
      case 0:
        col.type = FieldType::kInt;
        break;
      case 1:
        col.type = FieldType::kReal;
        break;
      case 2:
        col.type = FieldType::kText;
        break;
      default:
        throw std::runtime_error("TraceReader: unknown column type " +
                                 std::to_string(desc[0]));
    }
    const std::size_t name_len =
        desc[1] | (static_cast<std::size_t>(desc[2]) << 8);
    col.name.resize(name_len);
    in_.read(col.name.data(), static_cast<std::streamsize>(name_len));
    if (static_cast<std::size_t>(in_.gcount()) != name_len)
      throw std::runtime_error("TraceReader: truncated column name");
    schema_.push_back(std::move(col));
  }
  int_cols_.resize(ncols);
  real_cols_.resize(ncols);
  text_cols_.resize(ncols);
}

bool TraceReader::next_chunk() {
  chunk_rows_ = 0;
  if (truncated_ || !in_) return false;

  // A chunk is consumed in two phases: (1) pull the framed bytes off the
  // file into buffer_ (rows count + colblocks, exactly the CRC'd span),
  // classifying any short read as a crash tail; (2) verify the CRC and
  // decode — from here on every defect is corruption and throws.
  const auto fail_truncated = [&]() -> bool {
    if (options_.allow_partial_tail) {
      truncated_ = true;
      return false;
    }
    throw std::runtime_error(
        "TraceReader: truncated chunk (use allow_partial_tail to accept a "
        "crash tail)");
  };

  std::uint8_t word[4];
  in_.read(reinterpret_cast<char*>(word), sizeof(word));
  if (in_.gcount() == 0) return false;  // clean end of file
  if (in_.gcount() != sizeof(word)) return fail_truncated();
  if (load_u32(word) != kAtlChunkMagic)
    throw std::runtime_error("TraceReader: bad chunk magic (corrupt file)");

  buffer_.clear();
  const auto pull = [&](std::size_t n) -> bool {
    const std::size_t off = buffer_.size();
    buffer_.resize(off + n);
    in_.read(reinterpret_cast<char*>(buffer_.data() + off),
             static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n) return false;
    return true;
  };

  if (!pull(4)) return fail_truncated();
  const std::uint32_t rows = load_u32(buffer_.data());
  if (rows == 0)
    throw std::runtime_error("TraceReader: chunk with zero rows");

  struct Span {
    std::size_t off = 0;
    std::size_t len = 0;
  };
  std::vector<Span> payloads(schema_.size());
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    if (!pull(1)) return fail_truncated();
    const std::uint8_t encoding = buffer_.back();
    if (encoding != encoding_for(schema_[c].type))
      throw std::runtime_error("TraceReader: column encoding mismatch in " +
                               schema_[c].name);
    // Varint payload length, pulled byte by byte so it lands in buffer_
    // (it is part of the CRC'd span).
    std::uint64_t len = 0;
    for (int shift = 0;; shift += 7) {
      if (shift >= 64)
        throw std::runtime_error("TraceReader: malformed payload length");
      if (!pull(1)) return fail_truncated();
      const std::uint8_t byte = buffer_.back();
      len |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if (!(byte & 0x80u)) break;
    }
    if (len > (1ull << 31))
      throw std::runtime_error("TraceReader: implausible payload length");
    payloads[c].off = buffer_.size();
    payloads[c].len = static_cast<std::size_t>(len);
    if (!pull(payloads[c].len)) return fail_truncated();
  }

  std::uint8_t crc_bytes[4];
  in_.read(reinterpret_cast<char*>(crc_bytes), sizeof(crc_bytes));
  if (in_.gcount() != sizeof(crc_bytes)) return fail_truncated();
  const std::uint32_t want_crc = load_u32(crc_bytes);
  const std::uint32_t got_crc = crc32(buffer_.data(), buffer_.size());
  if (want_crc != got_crc)
    throw std::runtime_error(
        "TraceReader: CRC mismatch in chunk " +
        std::to_string(chunks_read_ + 1) + " (corrupt file)");

  // Phase 2: decode each colblock.
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    const std::uint8_t* data = buffer_.data() + payloads[c].off;
    const std::size_t size = payloads[c].len;
    switch (schema_[c].type) {
      case FieldType::kInt: {
        auto& col = int_cols_[c];
        col.clear();
        col.reserve(rows);
        std::size_t pos = 0;
        std::uint64_t prev = 0;  // wrapping sum, mirroring the writer
        for (std::uint32_t r = 0; r < rows; ++r) {
          prev += static_cast<std::uint64_t>(
              zigzag_decode(get_varint(data, size, pos)));
          col.push_back(static_cast<std::int64_t>(prev));
        }
        if (pos != size)
          throw std::runtime_error("TraceReader: trailing bytes in int column");
        break;
      }
      case FieldType::kReal: {
        if (size != static_cast<std::size_t>(rows) * 8)
          throw std::runtime_error("TraceReader: real column size mismatch");
        auto& col = real_cols_[c];
        col.clear();
        col.reserve(rows);
        for (std::uint32_t r = 0; r < rows; ++r) {
          const std::uint64_t bits = load_u64(data + r * 8);
          double v;
          std::memcpy(&v, &bits, sizeof(v));
          col.push_back(v);
        }
        break;
      }
      case FieldType::kText: {
        auto& col = text_cols_[c];
        col.clear();
        col.reserve(rows);
        std::size_t pos = 0;
        for (std::uint32_t r = 0; r < rows; ++r) {
          const std::uint64_t len = get_varint(data, size, pos);
          if (len > size - pos)
            throw std::runtime_error("TraceReader: text cell out of bounds");
          col.emplace_back(
              static_cast<std::uint32_t>(payloads[c].off + pos),
              static_cast<std::uint32_t>(len));
          pos += static_cast<std::size_t>(len);
        }
        if (pos != size)
          throw std::runtime_error(
              "TraceReader: trailing bytes in text column");
        break;
      }
    }
  }

  chunk_rows_ = rows;
  rows_read_ += rows;
  ++chunks_read_;
  account_residency();
  return true;
}

void TraceReader::account_residency() {
  std::uint64_t resident = buffer_.capacity();
  for (const auto& c : int_cols_) resident += c.capacity() * sizeof(c[0]);
  for (const auto& c : real_cols_) resident += c.capacity() * sizeof(c[0]);
  for (const auto& c : text_cols_)
    resident += c.capacity() * sizeof(std::pair<std::uint32_t, std::uint32_t>);
  if (resident > peak_resident_) peak_resident_ = resident;
  if (options_.obs != nullptr) {
    options_.obs->counter("trace.reader_chunks").add(1);
    options_.obs->counter("trace.reader_rows").add(chunk_rows_);
    options_.obs->gauge("trace.reader_resident_bytes")
        .set(static_cast<double>(peak_resident_));
  }
}

std::int64_t TraceReader::int_at(std::size_t col, std::size_t row) const {
  if (col >= schema_.size() || schema_[col].type != FieldType::kInt)
    throw std::invalid_argument("TraceReader::int_at: not an int column");
  return int_cols_[col].at(row);
}

double TraceReader::real_at(std::size_t col, std::size_t row) const {
  if (col >= schema_.size() || schema_[col].type != FieldType::kReal)
    throw std::invalid_argument("TraceReader::real_at: not a real column");
  return real_cols_[col].at(row);
}

std::string_view TraceReader::text_at(std::size_t col, std::size_t row) const {
  if (col >= schema_.size() || schema_[col].type != FieldType::kText)
    throw std::invalid_argument("TraceReader::text_at: not a text column");
  const auto [off, len] = text_cols_[col].at(row);
  return std::string_view(reinterpret_cast<const char*>(buffer_.data()) + off,
                          len);
}

const std::vector<std::int64_t>& TraceReader::int_column(
    std::size_t col) const {
  if (col >= schema_.size() || schema_[col].type != FieldType::kInt)
    throw std::invalid_argument("TraceReader::int_column: not an int column");
  return int_cols_[col];
}

const std::vector<double>& TraceReader::real_column(std::size_t col) const {
  if (col >= schema_.size() || schema_[col].type != FieldType::kReal)
    throw std::invalid_argument(
        "TraceReader::real_column: not a real column");
  return real_cols_[col];
}

// ---------------------------------------------------------------------------
// AtlEventStream

AtlEventStream::AtlEventStream(TraceReader& reader) : reader_(&reader) {
  if (!is_event_schema(reader.schema()))
    throw std::runtime_error(
        "AtlEventStream: trace does not use the canonical event schema");
}

bool AtlEventStream::next(Event& out) {
  while (row_ >= reader_->rows()) {
    if (!reader_->next_chunk()) return false;
    row_ = 0;
  }
  out.t_us = reader_->int_column(0)[row_];
  out.entity = reader_->int_column(1)[row_];
  out.kind = reader_->int_column(2)[row_];
  out.size = reader_->int_column(3)[row_];
  out.region = reader_->int_column(4)[row_];
  ++row_;
  return true;
}

// ---------------------------------------------------------------------------
// Whole-table convenience

void write_atl(const Table& table, const std::string& path,
               WriterOptions options) {
  TraceWriter writer(path, table.schema(), options);
  for (std::size_t r = 0; r < table.rows(); ++r)
    writer.append_row(table.row(r));
  writer.finish();
}

Table read_atl(const std::string& path, ReaderOptions options) {
  TraceReader reader(path, options);
  Table table(reader.schema());
  while (reader.next_chunk()) {
    for (std::size_t r = 0; r < reader.rows(); ++r) {
      std::vector<Field> row;
      row.reserve(reader.schema().size());
      for (std::size_t c = 0; c < reader.schema().size(); ++c) {
        switch (reader.schema()[c].type) {
          case FieldType::kInt:
            row.emplace_back(reader.int_at(c, r));
            break;
          case FieldType::kReal:
            row.emplace_back(reader.real_at(c, r));
            break;
          case FieldType::kText:
            row.emplace_back(std::string(reader.text_at(c, r)));
            break;
        }
      }
      table.append(std::move(row));
    }
  }
  return table;
}

}  // namespace atlarge::trace
